// Shared declarations of the end-to-end benchmark program (swat_perfbench).
//
// The program treats the library as a black box reached only through its
// public headers: it builds a Server per workload, drives it from one
// load-generating thread, checks every output it can afford to against an
// independent double-precision reference (reference.cpp), and, in a traced
// run, replays the recorded batch shapes through the public layer calls to
// split engine time into stages (replay.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "model/encoder.hpp"
#include "model/layer_norm.hpp"
#include "model/linear.hpp"
#include "runtime/server.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds (getrusage RUSAGE_SELF): every thread of
/// the process, the server's scheduler, replicas and pool included.
double process_cpu_seconds();
/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double peak_rss_mib();

/// Median / arbitrary quantile (linear interpolation) of a copy of `v`.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One request of a workload's round. `scaled` marks long_doc's 4x
/// documents, whose inputs are fixed (independent of --seed).
struct Request {
  std::uint64_t id = 0;
  swat::MatrixF input;
  swat::Priority priority = swat::Priority::kInteractive;
  bool scaled = false;
  std::int64_t length_class = 0;  ///< (rows - 1) / 64, the plan bucket
};

enum class Loop {
  kClosedOne,     ///< one request in flight (long_doc)
  kOpen,          ///< Poisson arrivals at a fixed absolute rate (serve_open)
  kClosedWindow,  ///< a fixed number of requests outstanding (bulk_encode)
};

struct Workload {
  std::string name;
  swat::model::EncoderConfig cfg;
  swat::ServerOptions opt;
  Loop loop = Loop::kClosedOne;
  std::size_t outstanding = 1;  ///< kClosedWindow
  double rate_per_s = 0.0;      ///< kOpen
  /// The requests of one round. Every run attempts whole rounds of these,
  /// so the failed share is the same in every run.
  std::vector<Request> round;
  /// The run's requests as indices into `round`: whole rounds, each a
  /// seeded permutation of it. kOpen: `gaps_s` holds the arrival gap
  /// before each (seconds) and the run ends with the schedule.
  std::vector<std::size_t> schedule;
  std::vector<double> gaps_s;
  /// long_doc: check the sliding-window locality property.
  bool locality_check = false;
};

/// Builds the named workload's model, server options and inputs from
/// `seed`; an open loop's schedule covers `seconds`. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                       double seconds);
const std::vector<std::string>& workload_names();

/// The model's weights, rebuilt through the public Linear / LayerNorm
/// constructors from the config's weight seed in the order the encoder
/// draws them. replay.cpp checks that a forward through these objects
/// reproduces Engine::run bit for bit, which proves they are the model's.
struct LayerWeights {
  LayerWeights(const swat::model::EncoderConfig& cfg, swat::Rng& rng);
  swat::model::Linear wq, wk, wv, wo, ffn1, ffn2;
  swat::model::LayerNorm norm1, norm2;
};
std::vector<LayerWeights> rebuild_weights(const swat::model::EncoderConfig& cfg);

/// Double-precision reference encoder over rebuilt weights (reference.cpp).
class Reference {
 public:
  explicit Reference(const swat::model::EncoderConfig& cfg);
  /// Reference output rows [r0, r1) of the encoder applied to `x` alone
  /// ((r1 - r0) x d_model, row-major). Only the dependency cone of those
  /// rows is computed.
  std::vector<double> rows(const swat::MatrixF& x, std::int64_t r0,
                           std::int64_t r1) const;
  /// Max |program - reference| over the rows the check covers: the first
  /// and last `edge` rows (all rows when n <= 2 * edge).
  double max_abs_error(const swat::MatrixF& x, const swat::MatrixF& out,
                       std::int64_t edge) const;

 private:
  struct Layer {
    std::vector<double> wq, wk, wv, wo, w1, w2;  // transposed: in x out
    std::vector<double> bq, bk, bv, bo, b1, b2;
    std::vector<double> g1, be1, g2, be2;
  };
  swat::model::EncoderConfig cfg_;
  std::vector<Layer> layers_;
};

/// Tolerance of the reference check on LayerNorm-scaled outputs.
inline constexpr double kReferenceTolerance = 2e-3;

/// One traced request, rebuilt after the run from the benchmark's own
/// timestamps and the server's RequestCounters.
struct RequestSpan {
  std::uint64_t id = 0;
  std::int64_t rows = 0;
  swat::Priority priority = swat::Priority::kInteractive;
  double due_s = 0.0;     ///< open loop: when it was due (phase clock)
  double submit_s = 0.0;  ///< when submit() was called (phase clock)
  double queue_s = 0.0;   ///< RequestCounters::queue_delay
  double turnaround_s = 0.0;
  std::int64_t batch_index = -1;
  const swat::MatrixF* input = nullptr;
};

/// Chrome trace-event spans kept in memory and written at exit.
struct TraceSpan {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::int64_t id = -1;
};
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceSpan>& spans);

/// Per-layer metrics from replaying the traced run's batch shapes
/// (replay.cpp). Keys are the per-layer metric names.
struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};
std::vector<LayerMetric> replay_layers(const Workload& w,
                                       const std::vector<RequestSpan>& spans,
                                       const swat::Server& server,
                                       const swat::ServerStats& before,
                                       const swat::ServerStats& after,
                                       std::vector<TraceSpan>& trace,
                                       std::string& error);

/// Host fingerprint and steal accounting (host.cpp).
std::string host_fingerprint_json();
struct CpuStat {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuStat read_cpu_stat();
double steal_share(const CpuStat& a, const CpuStat& b);

}  // namespace perfbench
