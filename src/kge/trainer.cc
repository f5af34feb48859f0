#include "kge/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "kge/checkpoint.h"
#include "kge/grad_sink.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace openbg::kge {
namespace {

/// Which execution path an epoch uses, resolved once per run from the
/// config and the model's TrainCaps.
enum class Strategy { kSerial, kHogwild, kDeterministic };

/// Neumaier-compensated sum of the per-batch losses, folded in batch-index
/// order. The fold order is fixed regardless of which thread produced each
/// loss, so every strategy reports the same epoch loss for the same
/// per-batch values — and the compensation keeps long epochs from drifting
/// the way the old naive `+=` accumulation did.
double FoldLosses(const std::vector<double>& losses) {
  double sum = 0.0;
  double comp = 0.0;
  for (double x : losses) {
    double t = sum + x;
    if (std::fabs(sum) >= std::fabs(x)) {
      comp += (sum - t) + x;
    } else {
      comp += (x - t) + sum;
    }
    sum = t;
  }
  return sum + comp;
}

/// Stateless per-batch corruption seed for deterministic mode: every batch
/// draws from its own stream derived from (run seed, epoch, batch index),
/// so the negatives a batch sees do not depend on which worker ran it or on
/// how many workers exist.
uint64_t BatchSeed(uint64_t run_seed, size_t epoch, size_t batch_index) {
  uint64_t tag = (static_cast<uint64_t>(epoch) << 32) ^
                 static_cast<uint64_t>(batch_index);
  return util::SplitMix64(run_seed ^ util::SplitMix64(tag));
}

}  // namespace

double TrainKgeModel(KgeModel* model, const Dataset& dataset,
                     const TrainConfig& config) {
  OPENBG_CHECK(!dataset.train.empty());
  NegativeSampler sampler(dataset, config.negatives, config.seed ^ 0x5EED);
  util::Rng rng(config.seed);
  std::vector<size_t> order(dataset.train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const size_t threads =
      config.num_threads == 0
          ? std::max<size_t>(1, std::thread::hardware_concurrency())
          : config.num_threads;
  const TrainCaps caps = model->train_caps();

  // Resolve the execution strategy. The serial loop is always correct;
  // the parallel strategies are only entered when the model's caps permit.
  // Deterministic mode uses the round-based path even at one thread so its
  // arithmetic is the same function of the data at every thread count.
  Strategy strategy = Strategy::kSerial;
  if (config.mode == TrainMode::kDeterministic) {
    if (caps.deferred_grad) {
      strategy = Strategy::kDeterministic;
    } else if (threads > 1) {
      OPENBG_LOG(Warning)
          << model->name()
          << ": does not support deferred gradients; deterministic "
             "training falls back to the serial loop";
    }
  } else if (threads > 1) {
    if (caps.hogwild_safe) {
      strategy = Strategy::kHogwild;
    } else {
      OPENBG_LOG(Warning)
          << model->name()
          << ": not Hogwild-safe; training falls back to the serial loop";
    }
  }

  // A model that exposes no parameter blocks cannot be meaningfully
  // restored — "resuming" it would skip training and leave random init.
  // Checkpointing is disabled outright for such models.
  bool checkpointable = false;
  model->VisitConstParams(
      [&checkpointable](const std::string&, const nn::Matrix&) {
        checkpointable = true;
      });
  const bool use_checkpoints = !config.checkpoint_path.empty() &&
                               checkpointable;
  if (!config.checkpoint_path.empty() && !checkpointable) {
    OPENBG_LOG(Warning) << model->name()
                        << ": exposes no parameters via VisitConstParams; "
                           "checkpointing disabled for this run";
  }

  size_t start_epoch = 0;
  double last_loss = 0.0;
  bool resumed = false;
  TrainerCheckpoint resume_ckpt;
  if (use_checkpoints && config.resume &&
      util::FileExists(config.checkpoint_path)) {
    OPENBG_CHECK_OK(
        LoadCheckpoint(config.checkpoint_path, model, &resume_ckpt));
    resumed = true;
    start_epoch = static_cast<size_t>(resume_ckpt.next_epoch);
    last_loss = resume_ckpt.last_loss;
    OPENBG_LOG(Info) << model->name() << ": resumed from "
                     << config.checkpoint_path << " at epoch " << start_epoch;
    if (start_epoch >= config.epochs) return last_loss;
    // The shuffled batch order is trainer state too: each epoch permutes
    // `order` in place, so replay the completed epochs' shuffles before
    // making the checkpointed RNG streams authoritative. With an unchanged
    // seed the replay lands `rng` exactly on `ckpt.trainer_rng`, giving a
    // resume that is bit-identical to an uninterrupted run.
    for (size_t e = 0; e < start_epoch; ++e) rng.Shuffle(&order);
    rng.SetState(resume_ckpt.trainer_rng);
    sampler.RestoreRngState(resume_ckpt.sampler_rng);
  }

  // Hogwild workers each own a corruption stream, derived from the run seed
  // and the worker id — or restored from the checkpoint so a resumed run
  // draws exactly the negatives an uninterrupted one would have. Shard
  // boundaries (ParallelFor) depend only on (batch count, thread count),
  // so stream consumption per worker is deterministic even though the
  // parameter updates race.
  std::vector<util::Rng> worker_rngs;
  if (strategy == Strategy::kHogwild) {
    worker_rngs.reserve(threads);
    for (size_t w = 0; w < threads; ++w) {
      worker_rngs.emplace_back(config.seed ^
                               util::SplitMix64(static_cast<uint64_t>(w)));
    }
    if (resumed && !resume_ckpt.worker_rngs.empty()) {
      if (resume_ckpt.worker_rngs.size() == threads) {
        for (size_t w = 0; w < threads; ++w) {
          worker_rngs[w].SetState(resume_ckpt.worker_rngs[w]);
        }
      } else {
        OPENBG_LOG(Warning)
            << model->name() << ": checkpoint has "
            << resume_ckpt.worker_rngs.size() << " worker RNG streams but "
            << threads << " threads requested; reseeding worker streams";
      }
    }
  }

  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1 && strategy != Strategy::kSerial) {
    pool = std::make_unique<util::ThreadPool>(threads);
  }

  const size_t batch_size = std::max<size_t>(1, config.batch_size);
  const size_t num_batches = (order.size() + batch_size - 1) / batch_size;
  const size_t round = std::max<size_t>(1, config.round_batches);

  // Reused across batches and epochs: these buffers reach full capacity
  // within the first epoch and never reallocate again.
  std::vector<LpTriple> batch, negs;
  batch.reserve(std::min<size_t>(batch_size, order.size()));
  std::vector<double> losses(num_batches, 0.0);
  // Deterministic-round staging, sized to the round width.
  std::vector<std::vector<LpTriple>> round_pos;
  std::vector<std::vector<LpTriple>> round_negs;
  std::vector<OpLogSink> round_sinks;
  if (strategy == Strategy::kDeterministic) {
    round_pos.resize(std::min(round, num_batches));
    round_negs.resize(round_pos.size());
    round_sinks.resize(round_pos.size());
  }

  auto fill_batch = [&](size_t b, std::vector<LpTriple>* out) {
    size_t begin = b * batch_size;
    size_t end = std::min(begin + batch_size, order.size());
    out->clear();
    for (size_t i = begin; i < end; ++i) {
      out->push_back(dataset.train[order[i]]);
    }
  };

  for (size_t epoch = start_epoch; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);

    switch (strategy) {
      case Strategy::kSerial: {
        // The classic loop, arithmetic untouched: models self-accumulate
        // any bookkeeping inside TrainPairs, exactly as before.
        for (size_t b = 0; b < num_batches; ++b) {
          fill_batch(b, &batch);
          sampler.CorruptBatch(batch, &negs);
          losses[b] = model->TrainPairs(batch, negs, config.lr);
          model->PostStep();
        }
        break;
      }

      case Strategy::kHogwild: {
        // Serial pre-pass for order-sensitive bookkeeping (TuckER's target
        // index), then lock-free sharded training. Each worker corrupts
        // with its own stream and applies updates through a DirectGradSink,
        // racing only on float stores.
        for (size_t b = 0; b < num_batches; ++b) {
          fill_batch(b, &batch);
          model->AccumulateTargets(batch);
        }
        util::ParallelFor(
            pool.get(), num_batches,
            [&](size_t shard, size_t begin, size_t end) {
              util::Rng* wrng = &worker_rngs[shard];
              DirectGradSink sink;
              std::vector<LpTriple> wbatch, wnegs;
              wbatch.reserve(batch_size);
              for (size_t b = begin; b < end; ++b) {
                fill_batch(b, &wbatch);
                sampler.CorruptBatch(wbatch, &wnegs, wrng);
                losses[b] = model->TrainBatch(wbatch, wnegs, config.lr,
                                              &sink);
                model->PostStep();
              }
            });
        break;
      }

      case Strategy::kDeterministic: {
        // Rounds of up to `round` batches: gradients are computed in
        // parallel from the round-start parameters into per-batch op logs,
        // then replayed serially in batch order. Both the op stream and
        // the per-batch losses are pure functions of (params, data, seed,
        // epoch, batch index), so any thread count produces bit-identical
        // results.
        for (size_t r0 = 0; r0 < num_batches; r0 += round) {
          const size_t width = std::min(round, num_batches - r0);
          for (size_t i = 0; i < width; ++i) {
            fill_batch(r0 + i, &round_pos[i]);
            model->AccumulateTargets(round_pos[i]);
          }
          util::ParallelFor(
              pool.get(), width, [&](size_t, size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  const size_t b = r0 + i;
                  util::Rng brng(BatchSeed(config.seed, epoch, b));
                  sampler.CorruptBatch(round_pos[i], &round_negs[i], &brng);
                  round_sinks[i].Clear();
                  losses[b] = model->TrainBatch(round_pos[i], round_negs[i],
                                                config.lr, &round_sinks[i]);
                }
              });
          for (size_t i = 0; i < width; ++i) {
            round_sinks[i].Replay();
            model->PostStep();
          }
        }
        break;
      }
    }

    last_loss =
        FoldLosses(losses) / static_cast<double>(std::max<size_t>(1, num_batches));
    if (config.on_epoch) config.on_epoch(epoch, last_loss);

    if (use_checkpoints &&
        (epoch + 1) % std::max<size_t>(1, config.checkpoint_every) == 0) {
      TrainerCheckpoint ckpt;
      ckpt.model_name = model->name();
      ckpt.next_epoch = epoch + 1;
      ckpt.last_loss = last_loss;
      ckpt.trainer_rng = rng.GetState();
      ckpt.sampler_rng = sampler.rng_state();
      for (const util::Rng& wrng : worker_rngs) {
        ckpt.worker_rngs.push_back(wrng.GetState());
      }
      OPENBG_CHECK_OK(SaveCheckpoint(ckpt, model, config.checkpoint_path));
    }
  }
  return last_loss;
}

}  // namespace openbg::kge
