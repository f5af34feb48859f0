#include "kge/trans_models.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "kge/grad_sink.h"
#include "nn/kernels.h"
#include "nn/loss.h"
#include "nn/simd.h"

namespace openbg::kge {
namespace {

float L1Distance(const float* a, const float* b, const float* c, size_t d) {
  // ||a + b - c||_1
  float s = 0.0f;
  for (size_t i = 0; i < d; ++i) s += std::fabs(a[i] + b[i] - c[i]);
  return s;
}

// Per-thread gradient scratch. Workers training concurrently (Hogwild) or
// batches logging ops (deterministic mode) each get private buffers; the
// buffers grow to the largest dim seen and then stop allocating.
std::vector<float>& Scratch(size_t n, size_t which = 0) {
  static thread_local std::vector<float> bufs[4];
  std::vector<float>& b = bufs[which];
  if (b.size() < n) b.resize(n);
  return b;
}

}  // namespace

// ---------------------------------------------------------------- TransE

TransE::TransE(size_t num_entities, size_t num_relations, size_t dim,
               float margin, util::Rng* rng)
    : KgeModel(num_entities, num_relations),
      dim_(dim),
      margin_(margin),
      ent_(num_entities, dim, rng),
      rel_(num_relations, dim, rng) {
  for (uint32_t r = 0; r < num_relations; ++r) rel_.NormalizeRow(r);
}

float TransE::ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const {
  return -L1Distance(ent_.Row(h), rel_.Row(r), ent_.Row(t), dim_);
}

void TransE::ScoreTails(uint32_t h, uint32_t r,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  std::vector<float> target(dim_);
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  for (size_t d = 0; d < dim_; ++d) target[d] = hh[d] + rr[d];
  nn::simd::Active().scan_l1(target.data(), ent_.matrix().data(),
                             num_entities_, dim_,
                             std::numeric_limits<float>::infinity(),
                             out->data());
  for (float& s : *out) s = -s;
}

void TransE::PrepareEval() {
  // Valid codes already match ent_ (every write path drops them), and
  // rebuilding them would write under readers of a serving model.
  if (codes_valid_) return;
  codes_.Build(ent_.matrix());
  codes_valid_ = true;
}

bool TransE::GetTailScanSpec(TailScanSpec* spec) const {
  spec->metric = TailScanSpec::Metric::kNegL1;
  spec->table = &ent_.matrix();
  spec->codes = codes_valid_ && !codes_.empty() ? &codes_ : nullptr;
  return true;
}

void TransE::TailScanQuery(uint32_t h, uint32_t r,
                           std::vector<float>* q) const {
  q->resize(dim_);
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  for (size_t d = 0; d < dim_; ++d) (*q)[d] = hh[d] + rr[d];
}

void TransE::ScoreHeads(uint32_t r, uint32_t t,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  std::vector<float> target(dim_);
  const float* rr = rel_.Row(r);
  const float* tt = ent_.Row(t);
  for (size_t d = 0; d < dim_; ++d) target[d] = tt[d] - rr[d];
  for (uint32_t h = 0; h < num_entities_; ++h) {
    (*out)[h] = -nn::L1Distance(ent_.Row(h), target.data(), dim_);
  }
}

void TransE::EmitGrad(const LpTriple& t, float direction, float lr,
                      GradSink* sink) {
  // d||h+r-t||_1 subgradient: sign(h+r-t); `direction` +1 shrinks the
  // positive distance, -1 grows the negative one. The full gradient vector
  // is computed from the current rows before any write is emitted, so the
  // direct-sink path reproduces the old interleaved loop exactly (every
  // element's reads preceded its writes there too).
  const float* hh = ent_.Row(t.h);
  const float* rr = rel_.Row(t.r);
  const float* tt = ent_.Row(t.t);
  std::vector<float>& g = Scratch(dim_);
  for (size_t d = 0; d < dim_; ++d) {
    float diff = hh[d] + rr[d] - tt[d];
    g[d] = direction * (diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f));
  }
  ent_.Update(sink, t.h, g.data(), lr);
  rel_.Update(sink, t.r, g.data(), lr);
  ent_.Axpy(sink, t.t, lr, g.data());
  ent_.ProjectToUnitBall(sink, t.h);
  ent_.ProjectToUnitBall(sink, t.t);
}

double TransE::TrainBatch(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr,
                          GradSink* sink) {
  codes_valid_ = false;
  double loss = 0.0;
  for (size_t i = 0; i < pos.size(); ++i) {
    float dp = -ScoreTriple(pos[i].h, pos[i].r, pos[i].t);
    float dn = -ScoreTriple(neg[i].h, neg[i].r, neg[i].t);
    float hinge = margin_ + dp - dn;
    if (hinge > 0.0f) {
      loss += hinge;
      EmitGrad(pos[i], +1.0f, lr, sink);
      EmitGrad(neg[i], -1.0f, lr, sink);
    }
  }
  return loss / static_cast<double>(pos.size());
}

double TransE::TrainPairs(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr) {
  DirectGradSink sink;
  return TrainBatch(pos, neg, lr, &sink);
}

void TransE::VisitConstParams(const ConstParamVisitor& fn) const {
  fn("entities", ent_.matrix());
  fn("relations", rel_.matrix());
}

void TransE::VisitParams(const ParamVisitor& fn) {
  codes_valid_ = false;
  KgeModel::VisitParams(fn);
}

// ---------------------------------------------------------------- TransH

TransH::TransH(size_t num_entities, size_t num_relations, size_t dim,
               float margin, util::Rng* rng)
    : KgeModel(num_entities, num_relations),
      dim_(dim),
      margin_(margin),
      ent_(num_entities, dim, rng),
      d_(num_relations, dim, rng),
      w_(num_relations, dim, rng) {
  for (uint32_t r = 0; r < num_relations; ++r) w_.NormalizeRow(r);
}

float TransH::ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const {
  const float* hh = ent_.Row(h);
  const float* tt = ent_.Row(t);
  const float* dd = d_.Row(r);
  const float* ww = w_.Row(r);
  float wh = nn::Dot(ww, hh, dim_);
  float wt = nn::Dot(ww, tt, dim_);
  float s = 0.0f;
  for (size_t i = 0; i < dim_; ++i) {
    float hp = hh[i] - wh * ww[i];
    float tp = tt[i] - wt * ww[i];
    s += std::fabs(hp + dd[i] - tp);
  }
  return -s;
}

void TransH::ScoreTails(uint32_t h, uint32_t r,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  const float* hh = ent_.Row(h);
  const float* dd = d_.Row(r);
  const float* ww = w_.Row(r);
  float wh = nn::Dot(ww, hh, dim_);
  std::vector<float> target(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    target[i] = hh[i] - wh * ww[i] + dd[i];
  }
  // |target - (t - (w.t) w)| = |(target + (w.t) w) - t|: shift the query
  // side so the candidate side is a raw embedding row and the scan is a
  // dot + axpy + L1, all vectorized.
  std::vector<float> shifted(dim_);
  for (uint32_t t = 0; t < num_entities_; ++t) {
    const float* tt = ent_.Row(t);
    float wt = nn::Dot(ww, tt, dim_);
    std::memcpy(shifted.data(), target.data(), dim_ * sizeof(float));
    nn::Axpy(wt, ww, shifted.data(), dim_);
    (*out)[t] = -nn::L1Distance(shifted.data(), tt, dim_);
  }
}

void TransH::ScoreHeads(uint32_t r, uint32_t t,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  const float* tt = ent_.Row(t);
  const float* dd = d_.Row(r);
  const float* ww = w_.Row(r);
  float wt = nn::Dot(ww, tt, dim_);
  std::vector<float> target(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    target[i] = tt[i] - wt * ww[i] - dd[i];
  }
  std::vector<float> shifted(dim_);
  for (uint32_t h = 0; h < num_entities_; ++h) {
    const float* hh = ent_.Row(h);
    float wh = nn::Dot(ww, hh, dim_);
    std::memcpy(shifted.data(), target.data(), dim_ * sizeof(float));
    nn::Axpy(wh, ww, shifted.data(), dim_);
    (*out)[h] = -nn::L1Distance(hh, shifted.data(), dim_);
  }
}

void TransH::EmitGrad(const LpTriple& t, float direction, float lr,
                      GradSink* sink, std::vector<uint32_t>* touched) {
  const float* hh = ent_.Row(t.h);
  const float* tt = ent_.Row(t.t);
  const float* dd = d_.Row(t.r);
  const float* ww = w_.Row(t.r);
  float wh = nn::Dot(ww, hh, dim_);
  float wt = nn::Dot(ww, tt, dim_);
  // g = subgradient of the L1 distance wrt (h_perp + d - t_perp).
  std::vector<float>& g = Scratch(dim_, 0);
  for (size_t i = 0; i < dim_; ++i) {
    float diff = (hh[i] - wh * ww[i]) + dd[i] - (tt[i] - wt * ww[i]);
    g[i] =
        direction * (diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f));
  }
  float gw = nn::Dot(g.data(), ww, dim_);
  // dh = (I - w w^T) g ; dt = -(I - w w^T) g ; dd = g ;
  // dw = -((g.w) h + (w.h) g) + ((g.w) t + (w.t) g).
  std::vector<float>& dh = Scratch(dim_, 1);
  std::vector<float>& dw = Scratch(dim_, 2);
  for (size_t i = 0; i < dim_; ++i) {
    dh[i] = g[i] - gw * ww[i];
    dw[i] = -(gw * hh[i] + wh * g[i]) + (gw * tt[i] + wt * g[i]);
  }
  ent_.Update(sink, t.h, dh.data(), lr);
  ent_.Axpy(sink, t.t, lr, dh.data());
  d_.Update(sink, t.r, g.data(), lr);
  w_.Update(sink, t.r, dw.data(), lr);
  ent_.ProjectToUnitBall(sink, t.h);
  ent_.ProjectToUnitBall(sink, t.t);
  touched->push_back(t.r);
}

double TransH::TrainBatch(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr,
                          GradSink* sink) {
  double loss = 0.0;
  std::vector<uint32_t> touched;
  touched.reserve(2 * pos.size());
  for (size_t i = 0; i < pos.size(); ++i) {
    float dp = -ScoreTriple(pos[i].h, pos[i].r, pos[i].t);
    float dn = -ScoreTriple(neg[i].h, neg[i].r, neg[i].t);
    float hinge = margin_ + dp - dn;
    if (hinge > 0.0f) {
      loss += hinge;
      EmitGrad(pos[i], +1.0f, lr, sink, &touched);
      EmitGrad(neg[i], -1.0f, lr, sink, &touched);
    }
  }
  // Re-normalize every touched hyperplane normal at end of batch (the old
  // PostStep, emitted through the sink in the same touch order so the
  // serial numerics are unchanged and no cross-batch state remains).
  for (uint32_t r : touched) w_.NormalizeRow(sink, r);
  return loss / static_cast<double>(pos.size());
}

double TransH::TrainPairs(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr) {
  DirectGradSink sink;
  return TrainBatch(pos, neg, lr, &sink);
}

void TransH::VisitConstParams(const ConstParamVisitor& fn) const {
  fn("entities", ent_.matrix());
  fn("translations", d_.matrix());
  fn("normals", w_.matrix());
}

// ---------------------------------------------------------------- TransD

TransD::TransD(size_t num_entities, size_t num_relations, size_t dim,
               float margin, util::Rng* rng)
    : KgeModel(num_entities, num_relations),
      dim_(dim),
      margin_(margin),
      ent_(num_entities, dim, rng),
      ent_p_(num_entities, dim, rng, 0.1f),
      rel_(num_relations, dim, rng),
      rel_p_(num_relations, dim, rng, 0.1f) {}

void TransD::Project(uint32_t e, uint32_t r, float* out) const {
  const float* ee = ent_.Row(e);
  const float* ep = ent_p_.Row(e);
  const float* rp = rel_p_.Row(r);
  float dot = nn::Dot(ep, ee, dim_);
  for (size_t i = 0; i < dim_; ++i) out[i] = ee[i] + dot * rp[i];
}

float TransD::ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const {
  std::vector<float> hp(dim_), tp(dim_);
  Project(h, r, hp.data());
  Project(t, r, tp.data());
  return -L1Distance(hp.data(), rel_.Row(r), tp.data(), dim_);
}

void TransD::ScoreTails(uint32_t h, uint32_t r,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  std::vector<float> target(dim_);
  Project(h, r, target.data());
  nn::Axpy(1.0f, rel_.Row(r), target.data(), dim_);  // target = h_perp + r
  const float* rp = rel_p_.Row(r);
  std::vector<float> proj(dim_);
  for (uint32_t t = 0; t < num_entities_; ++t) {
    const float* ee = ent_.Row(t);
    float dot = nn::Dot(ent_p_.Row(t), ee, dim_);
    std::memcpy(proj.data(), ee, dim_ * sizeof(float));
    nn::Axpy(dot, rp, proj.data(), dim_);  // proj = t_perp
    (*out)[t] = -nn::L1Distance(target.data(), proj.data(), dim_);
  }
}

void TransD::ScoreHeads(uint32_t r, uint32_t t,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  std::vector<float> target(dim_);
  Project(t, r, target.data());
  nn::Axpy(-1.0f, rel_.Row(r), target.data(), dim_);  // target = t_perp - r
  const float* rp = rel_p_.Row(r);
  std::vector<float> proj(dim_);
  for (uint32_t h = 0; h < num_entities_; ++h) {
    const float* ee = ent_.Row(h);
    float dot = nn::Dot(ent_p_.Row(h), ee, dim_);
    std::memcpy(proj.data(), ee, dim_ * sizeof(float));
    nn::Axpy(dot, rp, proj.data(), dim_);  // proj = h_perp
    (*out)[h] = -nn::L1Distance(proj.data(), target.data(), dim_);
  }
}

void TransD::EmitGrad(const LpTriple& t, float direction, float lr,
                      GradSink* sink) {
  std::vector<float> hperp(dim_), tperp(dim_);
  Project(t.h, t.r, hperp.data());
  Project(t.t, t.r, tperp.data());
  const float* hh = ent_.Row(t.h);
  const float* hp = ent_p_.Row(t.h);
  const float* tt = ent_.Row(t.t);
  const float* tp = ent_p_.Row(t.t);
  const float* rp = rel_p_.Row(t.r);
  const float* dd = rel_.Row(t.r);
  std::vector<float>& g = Scratch(dim_, 0);
  for (size_t i = 0; i < dim_; ++i) {
    float diff = hperp[i] + dd[i] - tperp[i];
    g[i] =
        direction * (diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f));
  }
  float grp = nn::Dot(g.data(), rp, dim_);
  float hph = nn::Dot(hp, hh, dim_);
  float tpt = nn::Dot(tp, tt, dim_);
  // h_perp = h + (hp.h) rp ; t_perp analogous. All six gradient vectors are
  // functions of the pre-update rows, so compute them fully, then emit.
  std::vector<float>& dh = Scratch(dim_, 1);
  std::vector<float>& dhp = Scratch(dim_, 2);
  std::vector<float>& dmix = Scratch(4 * dim_, 3);
  float* dt = dmix.data();
  float* dtp = dmix.data() + dim_;
  float* drp = dmix.data() + 2 * dim_;
  for (size_t i = 0; i < dim_; ++i) {
    dh[i] = g[i] + grp * hp[i];
    dhp[i] = grp * hh[i];
    dt[i] = -(g[i] + grp * tp[i]);
    dtp[i] = -grp * tt[i];
    drp[i] = (hph - tpt) * g[i];
  }
  ent_.Update(sink, t.h, dh.data(), lr);
  ent_p_.Update(sink, t.h, dhp.data(), lr);
  ent_.Update(sink, t.t, dt, lr);
  ent_p_.Update(sink, t.t, dtp, lr);
  rel_.Update(sink, t.r, g.data(), lr);
  rel_p_.Update(sink, t.r, drp, lr);
  ent_.ProjectToUnitBall(sink, t.h);
  ent_.ProjectToUnitBall(sink, t.t);
}

double TransD::TrainBatch(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr,
                          GradSink* sink) {
  double loss = 0.0;
  for (size_t i = 0; i < pos.size(); ++i) {
    float dp = -ScoreTriple(pos[i].h, pos[i].r, pos[i].t);
    float dn = -ScoreTriple(neg[i].h, neg[i].r, neg[i].t);
    float hinge = margin_ + dp - dn;
    if (hinge > 0.0f) {
      loss += hinge;
      EmitGrad(pos[i], +1.0f, lr, sink);
      EmitGrad(neg[i], -1.0f, lr, sink);
    }
  }
  return loss / static_cast<double>(pos.size());
}

double TransD::TrainPairs(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr) {
  DirectGradSink sink;
  return TrainBatch(pos, neg, lr, &sink);
}

void TransD::VisitConstParams(const ConstParamVisitor& fn) const {
  fn("entities", ent_.matrix());
  fn("entity_proj", ent_p_.matrix());
  fn("relations", rel_.matrix());
  fn("relation_proj", rel_p_.matrix());
}

}  // namespace openbg::kge
