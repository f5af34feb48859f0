#include "kge/bilinear_models.h"

#include <algorithm>
#include <cmath>

#include "kge/grad_sink.h"
#include "nn/loss.h"

namespace openbg::kge {
namespace {

/// Per-thread gradient scratch, so concurrent TrainBatch calls never share
/// a buffer. `which` selects one of a few independent slots per thread.
std::vector<float>& Scratch(size_t n, size_t which = 0) {
  static thread_local std::vector<float> bufs[4];
  std::vector<float>& b = bufs[which];
  if (b.size() < n) b.resize(n);
  return b;
}

/// Pointwise logistic step shared by the bilinear family. Each triple's
/// gradient is applied immediately at full magnitude (no batch averaging)
/// — the classic sparse-SGD recipe for KG embeddings, where a batch-mean
/// would shrink each touched row's update by the batch size and stall
/// learning.
template <typename ScoreFn, typename GradFn>
double LogisticPairs(const std::vector<LpTriple>& pos,
                     const std::vector<LpTriple>& neg, float lr,
                     const ScoreFn& score, const GradFn& apply) {
  double loss = 0.0;
  auto step = [&](const LpTriple& t, float label) {
    float s = score(t);
    float x = -label * s;
    loss += x > 20.0f ? x : std::log1p(std::exp(x));
    float dscore = -label / (1.0f + std::exp(label * s));
    apply(t, dscore, lr);
  };
  for (const LpTriple& t : pos) step(t, 1.0f);
  for (const LpTriple& t : neg) step(t, -1.0f);
  return loss / static_cast<double>(pos.size() + neg.size());
}

}  // namespace

// -------------------------------------------------------------- DistMult

DistMult::DistMult(size_t num_entities, size_t num_relations, size_t dim,
                   util::Rng* rng, float l2)
    : KgeModel(num_entities, num_relations),
      dim_(dim),
      l2_(l2),
      ent_(num_entities, dim, rng, 0.5f),
      rel_(num_relations, dim, rng, 0.5f) {}

float DistMult::ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const {
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  const float* tt = ent_.Row(t);
  float s = 0.0f;
  for (size_t i = 0; i < dim_; ++i) s += hh[i] * rr[i] * tt[i];
  return s;
}

void DistMult::ScoreTails(uint32_t h, uint32_t r,
                          std::vector<float>* out) const {
  out->resize(num_entities_);
  std::vector<float> q(dim_);
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  for (size_t i = 0; i < dim_; ++i) q[i] = hh[i] * rr[i];
  nn::RowDots(ent_.matrix(), q.data(), dim_, out);
}

bool DistMult::GetTailScanSpec(TailScanSpec* spec) const {
  spec->metric = TailScanSpec::Metric::kDot;
  spec->table = &ent_.matrix();
  return true;
}

void DistMult::TailScanQuery(uint32_t h, uint32_t r,
                             std::vector<float>* q) const {
  q->resize(dim_);
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  for (size_t i = 0; i < dim_; ++i) (*q)[i] = hh[i] * rr[i];
}

void DistMult::ScoreHeads(uint32_t r, uint32_t t,
                          std::vector<float>* out) const {
  // DistMult is symmetric in h/t given r.
  ScoreTails(t, r, out);
}

void DistMult::EmitGrad(const LpTriple& t, float dscore, float lr,
                        GradSink* sink) {
  const float* hh = ent_.Row(t.h);
  const float* rr = rel_.Row(t.r);
  const float* tt = ent_.Row(t.t);
  std::vector<float>& gh = Scratch(dim_, 0);
  std::vector<float>& gr = Scratch(dim_, 1);
  std::vector<float>& gt = Scratch(dim_, 2);
  for (size_t i = 0; i < dim_; ++i) {
    gh[i] = dscore * rr[i] * tt[i] + l2_ * hh[i];
    gr[i] = dscore * hh[i] * tt[i] + l2_ * rr[i];
    gt[i] = dscore * hh[i] * rr[i] + l2_ * tt[i];
  }
  ent_.Update(sink, t.h, gh.data(), lr);
  rel_.Update(sink, t.r, gr.data(), lr);
  ent_.Update(sink, t.t, gt.data(), lr);
}

double DistMult::TrainBatch(const std::vector<LpTriple>& pos,
                            const std::vector<LpTriple>& neg, float lr,
                            GradSink* sink) {
  return LogisticPairs(
      pos, neg, lr,
      [this](const LpTriple& t) { return ScoreTriple(t.h, t.r, t.t); },
      [this, sink](const LpTriple& t, float d, float l) {
        EmitGrad(t, d, l, sink);
      });
}

double DistMult::TrainPairs(const std::vector<LpTriple>& pos,
                            const std::vector<LpTriple>& neg, float lr) {
  DirectGradSink sink;
  return TrainBatch(pos, neg, lr, &sink);
}

void DistMult::VisitConstParams(const ConstParamVisitor& fn) const {
  fn("entities", ent_.matrix());
  fn("relations", rel_.matrix());
}

// --------------------------------------------------------------- ComplEx

ComplEx::ComplEx(size_t num_entities, size_t num_relations, size_t dim,
                 util::Rng* rng, float l2)
    : KgeModel(num_entities, num_relations),
      dim_(dim),
      l2_(l2),
      ent_(num_entities, 2 * dim, rng, 0.5f),
      rel_(num_relations, 2 * dim, rng, 0.5f) {}

float ComplEx::ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const {
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  const float* tt = ent_.Row(t);
  const float* hre = hh;
  const float* him = hh + dim_;
  const float* rre = rr;
  const float* rim = rr + dim_;
  const float* tre = tt;
  const float* tim = tt + dim_;
  float s = 0.0f;
  for (size_t i = 0; i < dim_; ++i) {
    s += rre[i] * (hre[i] * tre[i] + him[i] * tim[i]) +
         rim[i] * (hre[i] * tim[i] - him[i] * tre[i]);
  }
  return s;
}

void ComplEx::ScoreTails(uint32_t h, uint32_t r,
                         std::vector<float>* out) const {
  out->resize(num_entities_);
  // score(t) = q_re . t_re + q_im . t_im with
  // q_re = h_re*r_re - h_im*r_im ... careful with conj(t):
  // Re(<h,r,conj(t)>) = (h_re r_re - h_im r_im?).. expand from ScoreTriple:
  // s = sum tre*(rre*hre - rim*him) + tim*(rre*him + rim*hre).
  // Entity rows store [re | im] contiguously, so with q = [q_re | q_im]
  // every entity's score is one dot of length 2*dim — a single GEMV.
  std::vector<float> q(2 * dim_);
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  for (size_t i = 0; i < dim_; ++i) {
    q[i] = rr[i] * hh[i] - rr[dim_ + i] * hh[dim_ + i];
    q[dim_ + i] = rr[i] * hh[dim_ + i] + rr[dim_ + i] * hh[i];
  }
  nn::RowDots(ent_.matrix(), q.data(), 2 * dim_, out);
}

bool ComplEx::GetTailScanSpec(TailScanSpec* spec) const {
  // Entity rows store [re | im], so the 2*dim_-wide query from ScoreTails
  // makes every score a plain dot against the raw table.
  spec->metric = TailScanSpec::Metric::kDot;
  spec->table = &ent_.matrix();
  return true;
}

void ComplEx::TailScanQuery(uint32_t h, uint32_t r,
                            std::vector<float>* q) const {
  q->resize(2 * dim_);
  const float* hh = ent_.Row(h);
  const float* rr = rel_.Row(r);
  for (size_t i = 0; i < dim_; ++i) {
    (*q)[i] = rr[i] * hh[i] - rr[dim_ + i] * hh[dim_ + i];
    (*q)[dim_ + i] = rr[i] * hh[dim_ + i] + rr[dim_ + i] * hh[i];
  }
}

void ComplEx::ScoreHeads(uint32_t r, uint32_t t,
                         std::vector<float>* out) const {
  out->resize(num_entities_);
  // s = sum hre*(rre*tre + rim*tim) + him*(rre*tim - rim*tre).
  std::vector<float> q(2 * dim_);
  const float* tt = ent_.Row(t);
  const float* rr = rel_.Row(r);
  for (size_t i = 0; i < dim_; ++i) {
    q[i] = rr[i] * tt[i] + rr[dim_ + i] * tt[dim_ + i];
    q[dim_ + i] = rr[i] * tt[dim_ + i] - rr[dim_ + i] * tt[i];
  }
  nn::RowDots(ent_.matrix(), q.data(), 2 * dim_, out);
}

void ComplEx::EmitGrad(const LpTriple& t, float dscore, float lr,
                       GradSink* sink) {
  const float* hh = ent_.Row(t.h);
  const float* rr = rel_.Row(t.r);
  const float* tt = ent_.Row(t.t);
  std::vector<float>& gh = Scratch(2 * dim_, 0);
  std::vector<float>& gr = Scratch(2 * dim_, 1);
  std::vector<float>& gt = Scratch(2 * dim_, 2);
  for (size_t i = 0; i < dim_; ++i) {
    float hre = hh[i], him = hh[dim_ + i];
    float rre = rr[i], rim = rr[dim_ + i];
    float tre = tt[i], tim = tt[dim_ + i];
    gh[i] = dscore * (rre * tre + rim * tim) + l2_ * hre;
    gh[dim_ + i] = dscore * (rre * tim - rim * tre) + l2_ * him;
    gr[i] = dscore * (hre * tre + him * tim) + l2_ * rre;
    gr[dim_ + i] = dscore * (hre * tim - him * tre) + l2_ * rim;
    gt[i] = dscore * (rre * hre - rim * him) + l2_ * tre;
    gt[dim_ + i] = dscore * (rre * him + rim * hre) + l2_ * tim;
  }
  ent_.Update(sink, t.h, gh.data(), lr);
  rel_.Update(sink, t.r, gr.data(), lr);
  ent_.Update(sink, t.t, gt.data(), lr);
}

double ComplEx::TrainBatch(const std::vector<LpTriple>& pos,
                           const std::vector<LpTriple>& neg, float lr,
                           GradSink* sink) {
  return LogisticPairs(
      pos, neg, lr,
      [this](const LpTriple& t) { return ScoreTriple(t.h, t.r, t.t); },
      [this, sink](const LpTriple& t, float d, float l) {
        EmitGrad(t, d, l, sink);
      });
}

double ComplEx::TrainPairs(const std::vector<LpTriple>& pos,
                           const std::vector<LpTriple>& neg, float lr) {
  DirectGradSink sink;
  return TrainBatch(pos, neg, lr, &sink);
}

void ComplEx::VisitConstParams(const ConstParamVisitor& fn) const {
  fn("entities", ent_.matrix());
  fn("relations", rel_.matrix());
}

// ---------------------------------------------------------------- TuckER

TuckEr::TuckEr(size_t num_entities, size_t num_relations, size_t ent_dim,
               size_t rel_dim, util::Rng* rng, float l2)
    : KgeModel(num_entities, num_relations),
      de_(ent_dim),
      dr_(rel_dim),
      l2_(l2),
      ent_(num_entities, ent_dim, rng, 0.5f),
      rel_(num_relations, rel_dim, rng, 0.5f),
      core_(rel_dim * ent_dim * ent_dim) {
  float bound = 1.0f / std::sqrt(static_cast<float>(ent_dim));
  for (float& w : core_) {
    w = static_cast<float>(rng->UniformDouble(-bound, bound));
  }
}

void TuckEr::RelationMatrix(uint32_t r, std::vector<float>* m) const {
  m->assign(de_ * de_, 0.0f);
  const float* rr = rel_.Row(r);
  for (size_t i = 0; i < dr_; ++i) {
    float ri = rr[i];
    if (ri == 0.0f) continue;
    nn::Axpy(ri, core_.data() + i * de_ * de_, m->data(), de_ * de_);
  }
}

float TuckEr::ScoreTriple(uint32_t h, uint32_t r, uint32_t t) const {
  std::vector<float> m;
  RelationMatrix(r, &m);
  const float* hh = ent_.Row(h);
  const float* tt = ent_.Row(t);
  float s = 0.0f;
  for (size_t j = 0; j < de_; ++j) {
    float hj = hh[j];
    if (hj == 0.0f) continue;
    const float* mj = m.data() + j * de_;
    s += hj * nn::Dot(mj, tt, de_);
  }
  return s;
}

void TuckEr::ScoreTails(uint32_t h, uint32_t r,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  std::vector<float> m;
  RelationMatrix(r, &m);
  const float* hh = ent_.Row(h);
  std::vector<float> v(de_, 0.0f);  // v_k = sum_j h_j M[j][k]
  for (size_t j = 0; j < de_; ++j) {
    float hj = hh[j];
    if (hj == 0.0f) continue;
    nn::Axpy(hj, m.data() + j * de_, v.data(), de_);
  }
  nn::RowDots(ent_.matrix(), v.data(), de_, out);
}

void TuckEr::ScoreHeads(uint32_t r, uint32_t t,
                        std::vector<float>* out) const {
  out->resize(num_entities_);
  std::vector<float> m;
  RelationMatrix(r, &m);
  const float* tt = ent_.Row(t);
  std::vector<float> w(de_, 0.0f);  // w_j = sum_k M[j][k] t_k
  for (size_t j = 0; j < de_; ++j) {
    w[j] = nn::Dot(m.data() + j * de_, tt, de_);
  }
  nn::RowDots(ent_.matrix(), w.data(), de_, out);
}

double TuckEr::OneToAllStep(uint32_t h, uint32_t r,
                            const std::vector<uint32_t>& tails, float lr) {
  // Forward: v_k = sum_j h_j M[j][k]; logits = v . e_t for all t.
  std::vector<float> m;
  RelationMatrix(r, &m);
  float* hh = ent_.Row(h);
  float* rr = rel_.Row(r);
  std::vector<float> v(de_, 0.0f);
  for (size_t j = 0; j < de_; ++j) {
    float hj = hh[j];
    if (hj == 0.0f) continue;
    nn::Axpy(hj, m.data() + j * de_, v.data(), de_);
  }
  // Multi-label BCE against all entities (label smoothing 0.1 as in the
  // original). dlogit = p - y, scaled by 1/E to keep updates bounded.
  const float smooth_pos = 0.9f;
  const float smooth_neg = 0.1f / static_cast<float>(num_entities_);
  std::vector<float> dlogits(num_entities_);
  double loss = 0.0;
  std::vector<char> is_tail(num_entities_, 0);
  for (uint32_t t : tails) is_tail[t] = 1;
  const float inv_e = 1.0f / static_cast<float>(num_entities_);
  std::vector<float> logits;
  nn::RowDots(ent_.matrix(), v.data(), de_, &logits);
  for (uint32_t t = 0; t < num_entities_; ++t) {
    float p = 1.0f / (1.0f + std::exp(-logits[t]));
    float y = is_tail[t] ? smooth_pos : smooth_neg;
    loss -= y * std::log(std::max(p, 1e-12f)) +
            (1.0f - y) * std::log(std::max(1.0f - p, 1e-12f));
    dlogits[t] = (p - y) * inv_e;
  }
  loss *= inv_e;

  // Backward. dv = sum_t dlogit_t e_t ; de_t = dlogit_t v.
  std::vector<float> dv(de_, 0.0f);
  for (uint32_t t = 0; t < num_entities_; ++t) {
    float g = dlogits[t];
    if (g == 0.0f) continue;
    float* et = ent_.Row(t);
    nn::Axpy(g, et, dv.data(), de_);
    nn::Axpy(-lr * g, v.data(), et, de_);
  }
  // v = h^T M: dh_j = M[j] . dv ; dM[j][k] = h_j dv_k;
  // M = sum_i r_i W_i: dr_i = <W_i, dM> ; dW_i = r_i dM.
  std::vector<float> dh(de_, 0.0f);
  for (size_t j = 0; j < de_; ++j) {
    dh[j] = nn::Dot(m.data() + j * de_, dv.data(), de_);
  }
  for (size_t i = 0; i < dr_; ++i) {
    float* wi = core_.data() + i * de_ * de_;
    float ri = rr[i];
    float dri = 0.0f;
    for (size_t j = 0; j < de_; ++j) {
      float hj = hh[j];
      float* wij = wi + j * de_;
      for (size_t k = 0; k < de_; ++k) {
        float dm = hj * dv[k];
        dri += wij[k] * dm;
        wij[k] -= lr * (ri * dm + l2_ * wij[k]);
      }
    }
    rr[i] -= lr * (dri + l2_ * ri);
  }
  for (size_t j = 0; j < de_; ++j) {
    hh[j] -= lr * (dh[j] + l2_ * hh[j]);
  }
  return loss;
}

void TuckEr::AccumulateTargets(const std::vector<LpTriple>& pos) {
  // Accumulate the (h, r) -> tails index over everything seen, so each
  // step's multi-hot target reflects all known tails. Kept out of
  // TrainPairs so the map never mutates while batches train concurrently:
  // the trainer calls this serially before handing batches to workers.
  for (const LpTriple& t : pos) {
    uint64_t key = (static_cast<uint64_t>(t.h) << 32) | t.r;
    auto& tails = true_tails_[key];
    if (std::find(tails.begin(), tails.end(), t.t) == tails.end()) {
      tails.push_back(t.t);
    }
  }
}

double TuckEr::StepBatch(const std::vector<LpTriple>& pos, float lr) {
  double loss = 0.0;
  size_t steps = 0;
  uint64_t last_key = ~0ull;
  static const std::vector<uint32_t> kNoTails;
  for (const LpTriple& t : pos) {
    uint64_t key = (static_cast<uint64_t>(t.h) << 32) | t.r;
    if (key == last_key) continue;  // batch-local dedup of queries
    last_key = key;
    auto it = true_tails_.find(key);
    loss += OneToAllStep(t.h, t.r,
                         it != true_tails_.end() ? it->second : kNoTails, lr);
    ++steps;
  }
  return loss / static_cast<double>(std::max<size_t>(1, steps));
}

double TuckEr::TrainPairs(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr) {
  (void)neg;  // 1-N training scores all entities; sampled negatives unused
  AccumulateTargets(pos);
  return StepBatch(pos, lr);
}

double TuckEr::TrainBatch(const std::vector<LpTriple>& pos,
                          const std::vector<LpTriple>& neg, float lr,
                          GradSink* sink) {
  (void)neg;
  (void)sink;
  return StepBatch(pos, lr);
}

}  // namespace openbg::kge
