#include "kge/checkpoint.h"

#include <cstring>
#include <utility>
#include <vector>

#include "nn/matrix.h"
#include "util/fault_injection.h"
#include "util/snapshot.h"
#include "util/string_util.h"

namespace openbg::kge {
namespace {

constexpr char kMagic[] = "OBGCKPT1";
// v2 added the worker-RNG section for Hogwild resume. Version equality is
// strict (util/snapshot.h), so v1 files fail closed with a clear error.
constexpr uint32_t kVersion = 2;

constexpr uint32_t kMetaSection = 1;
constexpr uint32_t kRngSection = 2;
constexpr uint32_t kParamsSection = 3;
constexpr uint32_t kWorkerRngSection = 4;

void PutRngState(util::SnapshotWriter* w, const util::RngState& state) {
  for (uint64_t word : state.s) w->PutU64(word);
  w->PutU8(state.has_cached_normal ? 1 : 0);
  w->PutDouble(state.cached_normal);
}

util::Status ReadRngState(util::SnapshotSection* sec, util::RngState* state) {
  for (uint64_t& word : state->s) OPENBG_RETURN_NOT_OK(sec->ReadU64(&word));
  uint8_t flag;
  OPENBG_RETURN_NOT_OK(sec->ReadU8(&flag));
  if (flag > 1) {
    return util::Status::IoError("checkpoint: invalid RNG flag byte");
  }
  state->has_cached_normal = flag != 0;
  return sec->ReadDouble(&state->cached_normal);
}

template <typename M>
struct ParamRef {
  std::string name;
  M* matrix;
};

// Saving reads the parameters through the const visit, which keeps state
// derived from them; loading writes them through VisitParams, which drops
// it.
std::vector<ParamRef<const nn::Matrix>> ParamsToSave(const KgeModel* model) {
  std::vector<ParamRef<const nn::Matrix>> params;
  model->VisitConstParams(
      [&params](const std::string& name, const nn::Matrix& m) {
        params.push_back({name, &m});
      });
  return params;
}

std::vector<ParamRef<nn::Matrix>> ParamsToLoad(KgeModel* model) {
  std::vector<ParamRef<nn::Matrix>> params;
  model->VisitParams([&params](const std::string& name, nn::Matrix* m) {
    params.push_back({name, m});
  });
  return params;
}

}  // namespace

util::Status SaveCheckpoint(const TrainerCheckpoint& ckpt,
                            const KgeModel* model, const std::string& path) {
  util::SnapshotWriter writer(path, kMagic, kVersion);

  writer.BeginSection(kMetaSection);
  writer.PutString(ckpt.model_name);
  writer.PutU64(ckpt.next_epoch);
  writer.PutDouble(ckpt.last_loss);

  writer.BeginSection(kRngSection);
  PutRngState(&writer, ckpt.trainer_rng);
  PutRngState(&writer, ckpt.sampler_rng);

  writer.BeginSection(kParamsSection);
  const auto params = ParamsToSave(model);
  writer.PutU64(params.size());
  for (const auto& p : params) {
    writer.PutString(p.name);
    writer.PutU64(p.matrix->rows());
    writer.PutU64(p.matrix->cols());
    writer.PutFloats(p.matrix->data(), p.matrix->size());
  }

  writer.BeginSection(kWorkerRngSection);
  writer.PutU64(ckpt.worker_rngs.size());
  for (const util::RngState& state : ckpt.worker_rngs) {
    PutRngState(&writer, state);
  }

  return writer.Finish();
}

util::Status LoadCheckpoint(const std::string& path, KgeModel* model,
                            TrainerCheckpoint* ckpt) {
  // Fires before the file is opened, so a "failed" load provably touches
  // neither the model nor the trainer state — what lets the serving layer
  // retry a reload and keep serving generation N on exhaustion.
  if (util::failpoints::Triggered("checkpoint::read")) {
    return util::Status::IoError("checkpoint::read failpoint fired on " +
                                 path);
  }
  util::SnapshotReader reader;
  OPENBG_RETURN_NOT_OK(reader.Open(path, kMagic, kVersion));
  if (reader.num_sections() != 4) {
    return util::Status::IoError(util::StrFormat(
        "%s: expected 4 sections, found %zu", path.c_str(),
        reader.num_sections()));
  }

  TrainerCheckpoint loaded;

  util::SnapshotSection meta = reader.section(0);
  if (meta.tag() != kMetaSection) {
    return util::Status::IoError(util::StrFormat(
        "%s: unexpected section tag %u (want meta=%u)", path.c_str(),
        meta.tag(), kMetaSection));
  }
  OPENBG_RETURN_NOT_OK(meta.ReadString(&loaded.model_name));
  OPENBG_RETURN_NOT_OK(meta.ReadU64(&loaded.next_epoch));
  OPENBG_RETURN_NOT_OK(meta.ReadDouble(&loaded.last_loss));
  if (!meta.AtEnd()) {
    return util::Status::IoError(path + ": trailing bytes in meta section");
  }
  if (loaded.model_name != model->name()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: checkpoint is for model '%s', not '%s'", path.c_str(),
        loaded.model_name.c_str(), model->name().c_str()));
  }

  util::SnapshotSection rngs = reader.section(1);
  if (rngs.tag() != kRngSection) {
    return util::Status::IoError(util::StrFormat(
        "%s: unexpected section tag %u (want rng=%u)", path.c_str(),
        rngs.tag(), kRngSection));
  }
  OPENBG_RETURN_NOT_OK(ReadRngState(&rngs, &loaded.trainer_rng));
  OPENBG_RETURN_NOT_OK(ReadRngState(&rngs, &loaded.sampler_rng));
  if (!rngs.AtEnd()) {
    return util::Status::IoError(path + ": trailing bytes in RNG section");
  }

  util::SnapshotSection params_sec = reader.section(2);
  if (params_sec.tag() != kParamsSection) {
    return util::Status::IoError(util::StrFormat(
        "%s: unexpected section tag %u (want params=%u)", path.c_str(),
        params_sec.tag(), kParamsSection));
  }
  const auto params = ParamsToLoad(model);
  uint64_t param_count;
  OPENBG_RETURN_NOT_OK(params_sec.ReadU64(&param_count));
  if (param_count != params.size()) {
    return util::Status::InvalidArgument(util::StrFormat(
        "%s: checkpoint has %llu parameter blocks, model '%s' exposes %zu",
        path.c_str(), static_cast<unsigned long long>(param_count),
        model->name().c_str(), params.size()));
  }
  // Decode every block into staging buffers before touching the model, so
  // a failure partway through (bad name, shape mismatch, short section)
  // leaves the in-memory parameters exactly as they were.
  std::vector<std::vector<float>> staged(params.size());
  std::string name;
  for (size_t i = 0; i < params.size(); ++i) {
    OPENBG_RETURN_NOT_OK(params_sec.ReadString(&name));
    if (name != params[i].name) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s: parameter %zu is '%s', model expects '%s'", path.c_str(), i,
          name.c_str(), params[i].name.c_str()));
    }
    uint64_t rows, cols;
    OPENBG_RETURN_NOT_OK(params_sec.ReadU64(&rows));
    OPENBG_RETURN_NOT_OK(params_sec.ReadU64(&cols));
    if (rows != params[i].matrix->rows() ||
        cols != params[i].matrix->cols()) {
      return util::Status::InvalidArgument(util::StrFormat(
          "%s: parameter '%s' has shape %llux%llu, model expects %zux%zu",
          path.c_str(), name.c_str(), static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols), params[i].matrix->rows(),
          params[i].matrix->cols()));
    }
    staged[i].resize(params[i].matrix->size());
    OPENBG_RETURN_NOT_OK(
        params_sec.ReadFloats(staged[i].data(), staged[i].size()));
  }
  if (!params_sec.AtEnd()) {
    return util::Status::IoError(path + ": trailing bytes in params section");
  }

  util::SnapshotSection workers = reader.section(3);
  if (workers.tag() != kWorkerRngSection) {
    return util::Status::IoError(util::StrFormat(
        "%s: unexpected section tag %u (want worker-rng=%u)", path.c_str(),
        workers.tag(), kWorkerRngSection));
  }
  uint64_t worker_count;
  OPENBG_RETURN_NOT_OK(workers.ReadU64(&worker_count));
  if (worker_count > 4096) {
    return util::Status::IoError(util::StrFormat(
        "%s: implausible worker-RNG count %llu", path.c_str(),
        static_cast<unsigned long long>(worker_count)));
  }
  loaded.worker_rngs.resize(worker_count);
  for (uint64_t i = 0; i < worker_count; ++i) {
    OPENBG_RETURN_NOT_OK(ReadRngState(&workers, &loaded.worker_rngs[i]));
  }
  if (!workers.AtEnd()) {
    return util::Status::IoError(path +
                                 ": trailing bytes in worker-RNG section");
  }

  for (size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i].matrix->data(), staged[i].data(),
                staged[i].size() * sizeof(float));
  }
  *ckpt = std::move(loaded);
  return util::Status::OK();
}

}  // namespace openbg::kge
