#ifndef OPENBG_BENCH_BENCH_COMMON_H_
#define OPENBG_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/openbg.h"
#include "kge/trainer.h"
#include "util/parse.h"
#include "util/string_util.h"

namespace openbg::bench {

/// Shared CLI for the table/figure reproduction binaries:
///   --scale <f>           multiplies the synthetic-world taxonomy sizes
///   --products <n>        product count
///   --seed <n>            world seed
///   --threads <n>         evaluator worker threads (metrics are identical
///                         to serial; only wall-clock changes)
///   --train-threads <n>   KGE trainer threads (0 = hardware); with
///                         --train-mode hogwild the updates race benignly,
///                         with deterministic they are bit-identical to 1
///                         thread
///   --train-mode <m>      'hogwild' (default) or 'deterministic'
///   --parse-policy <p>    'strict' (default) or 'skip': how file loaders
///                         treat malformed lines
///   --max-parse-errors <n> abort a 'skip' load after n bad lines (0 = no
///                         limit)
///   --checkpoint-dir <d>  write/resume per-model trainer checkpoints
///                         under this directory (empty = disabled)
///   --ann <0|1>           rank with the IVF+int8 ANN path (src/ann) for
///                         models that expose a tail-scan spec; others
///                         fall back to the exact scan
///   --ann-nprobe <n>      clusters probed per ANN query (>= num_clusters
///                         degenerates to exact)
///   --ann-clusters <n>    IVF cluster count (0 = auto ~sqrt(E))
/// Defaults give a ~1/1000-of-paper world that runs each bench in minutes
/// on one core.
struct BenchArgs {
  double scale = 1.0;
  size_t products = 4000;
  uint64_t seed = 7;
  size_t threads = 1;
  size_t train_threads = 1;
  kge::TrainMode train_mode = kge::TrainMode::kHogwild;
  util::ParseOptions parse;
  std::string checkpoint_dir;
  bool ann = false;
  size_t ann_nprobe = 8;
  size_t ann_clusters = 0;

  /// Every flag takes a value. An unknown flag, a flag with no value, or a
  /// --train-mode / --parse-policy outside its choices prints the usage
  /// on stderr and exits with code 2 rather than running the default world.
  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; i += 2) {
      if (i + 1 >= argc) Usage(argv[0], argv[i], "(no value)");
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--scale") {
        args.scale = std::atof(value.c_str());
      } else if (flag == "--products") {
        args.products = static_cast<size_t>(std::atoll(value.c_str()));
      } else if (flag == "--seed") {
        args.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
      } else if (flag == "--threads") {
        args.threads = static_cast<size_t>(std::atoll(value.c_str()));
      } else if (flag == "--train-threads") {
        args.train_threads = static_cast<size_t>(std::atoll(value.c_str()));
      } else if (flag == "--train-mode" && value == "hogwild") {
        args.train_mode = kge::TrainMode::kHogwild;
      } else if (flag == "--train-mode" && value == "deterministic") {
        args.train_mode = kge::TrainMode::kDeterministic;
      } else if (flag == "--parse-policy" && value == "strict") {
        args.parse.policy = util::ParsePolicy::kStrict;
      } else if (flag == "--parse-policy" && value == "skip") {
        args.parse.policy = util::ParsePolicy::kSkipAndReport;
      } else if (flag == "--max-parse-errors") {
        args.parse.max_errors = static_cast<size_t>(std::atoll(value.c_str()));
      } else if (flag == "--checkpoint-dir") {
        args.checkpoint_dir = value;
      } else if (flag == "--ann") {
        args.ann = std::atoi(value.c_str()) != 0;
      } else if (flag == "--ann-nprobe") {
        args.ann_nprobe = static_cast<size_t>(std::atoll(value.c_str()));
      } else if (flag == "--ann-clusters") {
        args.ann_clusters = static_cast<size_t>(std::atoll(value.c_str()));
      } else {
        Usage(argv[0], argv[i], argv[i + 1]);
      }
    }
    return args;
  }

  [[noreturn]] static void Usage(const char* prog, const char* flag,
                                 const char* value) {
    std::fprintf(stderr,
                 "%s: unknown flag or bad value: %s %s\n"
                 "usage: %s [--scale f] [--products n] [--seed n] "
                 "[--threads n] [--train-threads n]\n"
                 "  [--train-mode hogwild|deterministic] "
                 "[--parse-policy strict|skip] [--max-parse-errors n]\n"
                 "  [--checkpoint-dir d] [--ann 0|1] [--ann-nprobe n] "
                 "[--ann-clusters n]\n",
                 prog, flag, value, prog);
    std::exit(2);
  }

  core::OpenBG::Options ToOptions() const {
    core::OpenBG::Options opts;
    opts.world.scale = scale;
    opts.world.num_products = products;
    opts.world.seed = seed;
    return opts;
  }
};

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s of the OpenBG paper, ICDE 2023; synthetic\n",
              paper_ref);
  std::printf(" world stands in for the proprietary Alibaba data — see\n");
  std::printf(" DESIGN.md; compare *shapes*, not absolute values)\n");
  std::printf("================================================================\n");
}

}  // namespace openbg::bench

#endif  // OPENBG_BENCH_BENCH_COMMON_H_
