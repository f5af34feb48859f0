#ifndef OPENBG_BENCH_BENCH_COMMON_H_
#define OPENBG_BENCH_BENCH_COMMON_H_

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>

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

  /// Every flag takes a value. An unknown flag, a flag with no value, a
  /// malformed number, or a --train-mode / --parse-policy / --ann outside
  /// its choices prints the usage on stderr and exits with code 2 rather
  /// than running the default world.
  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; i += 2) {
      if (i + 1 >= argc) Usage(argv[0], argv[i], "(no value)");
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--scale") {
        args.scale = Number<double>(argv, i);
        if (!(args.scale > 0.0) || !std::isfinite(args.scale)) {
          Usage(argv[0], argv[i], argv[i + 1]);
        }
      } else if (flag == "--products") {
        args.products = Number<size_t>(argv, i);
      } else if (flag == "--seed") {
        args.seed = Number<uint64_t>(argv, i);
      } else if (flag == "--threads") {
        args.threads = Number<size_t>(argv, i);
      } else if (flag == "--train-threads") {
        args.train_threads = Number<size_t>(argv, i);
      } else if (flag == "--train-mode" && value == "hogwild") {
        args.train_mode = kge::TrainMode::kHogwild;
      } else if (flag == "--train-mode" && value == "deterministic") {
        args.train_mode = kge::TrainMode::kDeterministic;
      } else if (flag == "--parse-policy" && value == "strict") {
        args.parse.policy = util::ParsePolicy::kStrict;
      } else if (flag == "--parse-policy" && value == "skip") {
        args.parse.policy = util::ParsePolicy::kSkipAndReport;
      } else if (flag == "--max-parse-errors") {
        args.parse.max_errors = Number<size_t>(argv, i);
      } else if (flag == "--checkpoint-dir") {
        args.checkpoint_dir = value;
      } else if (flag == "--ann" && (value == "0" || value == "1")) {
        args.ann = value == "1";
      } else if (flag == "--ann-nprobe") {
        args.ann_nprobe = Number<size_t>(argv, i);
      } else if (flag == "--ann-clusters") {
        args.ann_clusters = Number<size_t>(argv, i);
      } else {
        Usage(argv[0], argv[i], argv[i + 1]);
      }
    }
    return args;
  }

  /// argv[i + 1] as a T: the whole string, within T's range, and for an
  /// unsigned T without a sign ("12abc", "", "-1" and "1e99" for an integer
  /// all fail). A bad value is a usage error.
  template <typename T>
  static T Number(char** argv, int i) {
    const char* begin = argv[i + 1];
    const char* end = begin + std::strlen(begin);
    T out{};
    const auto [ptr, ec] = std::from_chars(begin, end, out);
    if (begin == end || ec != std::errc() || ptr != end) {
      Usage(argv[0], argv[i], argv[i + 1]);
    }
    return out;
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
