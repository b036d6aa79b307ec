// swat_perfbench: one workload of the end-to-end benchmark, in its own
// process. Usage:
//
//   swat_perfbench --workload <long_doc|serve_open|bulk_encode> --seed <n>
//                  --seconds <s> --trace <0|1> [--smoke] [--flip-one]
//                  [--trace-out <path>]
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics, as the last line of stdout: one JSON object with the
// keys correct, attempted, failed and metrics. Lines before it starting
// with "# " are the run record (host, steal, generator lateness, counts).
// --flip-one corrupts one element of one checked output before the
// reference check, which must then fail (the check's own test).
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  bool flip_one = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "swat_perfbench: %s\nusage: swat_perfbench --workload "
               "<long_doc|serve_open|bulk_encode> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--flip-one] [--trace-out <path>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") o.workload = value();
      else if (a == "--seed") o.seed = std::stoull(value());
      else if (a == "--seconds") o.seconds = std::stod(value());
      else if (a == "--trace") o.trace = std::stoi(value());
      else if (a == "--trace-out") o.trace_out = value();
      else if (a == "--smoke") o.smoke = true;
      else if (a == "--flip-one") o.flip_one = true;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

std::uint64_t hash_output(const swat::MatrixF& m, bool& finite) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ static_cast<std::uint64_t>(m.rows());
  finite = true;
  for (const float v : m.flat()) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    if ((bits & 0x7f800000u) == 0x7f800000u) finite = false;
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

/// Checks every output the run produces: each repeat of a request must be
/// bit-identical to its first output and finite; one request per length
/// class (plus long_doc's 4x document) keeps its output for the
/// double-precision reference; failures are allowed only on 4x documents
/// and only with the fused kernel's denominator invariant.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) {
    std::set<std::int64_t> classes;
    for (const Request& r : w.round) {
      if (r.scaled || classes.insert(r.length_class).second) {
        sampled_.insert(r.id);
      }
    }
  }

  const Request& request(std::uint64_t id) const {
    for (const Request& r : w_.round) {
      if (r.id == id) return r;
    }
    throw std::logic_error("unknown request id");
  }

  void on_result(std::uint64_t id, const swat::MatrixF& out) {
    bool finite = true;
    const std::uint64_t h = hash_output(out, finite);
    if (!finite) fail("request " + std::to_string(id) + ": non-finite output");
    const auto [it, first] = golden_.emplace(id, h);
    if (first) {
      if (sampled_.count(id) != 0) kept_.emplace(id, out);
    } else if (it->second != h) {
      fail("request " + std::to_string(id) +
           ": output differs from its first run");
    }
  }

  void on_failure(std::uint64_t id, const std::string& what) {
    if (request(id).scaled && what.find("denom > 0") != std::string::npos) {
      scaled_failures_[id] = what;
      return;
    }
    fail("request " + std::to_string(id) + " failed: " + what);
  }

  void fail(const std::string& why) {
    if (errors_.size() < 8) errors_.push_back(why);
    ok_ = false;
  }

  /// The reference check on the kept outputs, and (long_doc) the
  /// sliding-window locality check through `server`.
  void final_checks(swat::Server& server, bool flip_one) {
    const Reference ref(w_.cfg);
    constexpr std::int64_t kEdge = 64;
    bool flipped = false;
    for (const std::uint64_t id : sampled_) {
      const Request& r = request(id);
      auto kept = kept_.find(id);
      if (kept == kept_.end()) {
        if (r.scaled && scaled_failures_.count(id) != 0) continue;
        fail("request " + std::to_string(id) + " never completed");
        continue;
      }
      swat::MatrixF out = kept->second;
      if (flip_one && !flipped) {
        // Negate the largest-magnitude element of the first checked row.
        float* row = out.row(0).data();
        const auto big = std::max_element(
            row, row + out.cols(),
            [](float a, float b) { return std::abs(a) < std::abs(b); });
        *big = -*big;
        flipped = true;
      }
      const double err = ref.max_abs_error(r.input, out, kEdge);
      max_ref_error_ = std::max(max_ref_error_, err);
      ++reference_checked_;
      if (!(err <= kReferenceTolerance)) {
        fail("request " + std::to_string(id) + " (" +
             std::to_string(r.input.rows()) +
             " rows): max |out - reference| = " + std::to_string(err));
      }
    }
    if (w_.locality_check) locality(server);
  }

  bool ok() const { return ok_; }
  const std::vector<std::string>& errors() const { return errors_; }
  double max_ref_error() const { return max_ref_error_; }
  int reference_checked() const { return reference_checked_; }
  std::int64_t locality_rows() const { return locality_rows_; }
  std::size_t scaled_failures() const { return scaled_failures_.size(); }

 private:
  /// A document prefix served alone must reproduce the full run's rows bit
  /// for bit for every row more than layers x window_after rows before the
  /// cut. Uses the shortest kept document that leaves at least 256 such
  /// rows, cut in half where that leaves enough.
  void locality(swat::Server& server) {
    const std::int64_t reach =
        static_cast<std::int64_t>(w_.cfg.layers) * w_.cfg.swat.window_after();
    const swat::MatrixF* full = nullptr;
    const Request* doc = nullptr;
    for (const auto& [id, out] : kept_) {
      const Request& r = request(id);
      const std::int64_t n = r.input.rows();
      if (r.scaled || n < reach + 320) continue;
      if (doc == nullptr || n < doc->input.rows()) {
        doc = &r;
        full = &out;
      }
    }
    if (doc == nullptr) {
      fail("locality: no document long enough to check");
      return;
    }
    const std::int64_t n = doc->input.rows();
    const std::int64_t cut = std::max(n / 2, reach + 256);
    const std::int64_t d = w_.cfg.d_model;
    swat::InferenceRequest prefix;
    prefix.id = 1u << 30;
    prefix.input.reshape(cut, d);
    std::copy(doc->input.data(), doc->input.data() + cut * d,
              prefix.input.data());
    swat::RequestResult res = server.submit(std::move(prefix)).get();
    locality_rows_ = std::max<std::int64_t>(0, cut - reach);
    for (std::int64_t i = 0; i < locality_rows_; ++i) {
      if (!std::equal(res.output.row(i).begin(), res.output.row(i).end(),
                      full->row(i).begin())) {
        fail("locality: prefix row " + std::to_string(i) + " of " +
             std::to_string(cut) + " differs from the full " +
             std::to_string(n) + "-row run");
        break;
      }
    }
  }

  const Workload& w_;
  std::set<std::uint64_t> sampled_;
  std::map<std::uint64_t, std::uint64_t> golden_;
  std::map<std::uint64_t, swat::MatrixF> kept_;
  std::map<std::uint64_t, std::string> scaled_failures_;
  std::vector<std::string> errors_;
  bool ok_ = true;
  double max_ref_error_ = 0.0;
  int reference_checked_ = 0;
  std::int64_t locality_rows_ = 0;
};

struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t rounds = 0;
  double tokens = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal = 0.0;
  // Per round (by the round a request was submitted in): served tokens,
  // the time its last request completed, and request latencies.
  std::vector<double> round_tokens;
  std::vector<double> round_done_s;
  std::vector<std::vector<double>> latency_ms;
  std::vector<double> lateness_ms;  ///< open loop: submit - due
  // Wall-clock figures are taken per round and reported as the median over
  // the run's rounds. Host steal on this kind of guest comes in bursts of a
  // few seconds; a burst moves the rounds it hits, not the median.

  /// Percentile q of request latency within each round, median over rounds.
  double latency(double q) const {
    std::vector<double> per_round;
    for (const auto& r : latency_ms) {
      if (!r.empty()) per_round.push_back(quantile(r, q));
    }
    return median(per_round);
  }
  /// The same percentile over all requests of the run (run record only).
  double latency_pooled(double q) const {
    std::vector<double> all;
    for (const auto& r : latency_ms) all.insert(all.end(), r.begin(), r.end());
    return quantile(all, q);
  }
  /// Tokens of each round over the time from the previous round's last
  /// completion to its own, median over rounds.
  double tok_s() const {
    std::vector<double> rates;
    double prev = 0.0;
    for (std::size_t k = 0; k < round_done_s.size(); ++k) {
      if (round_done_s[k] > prev) {
        rates.push_back(round_tokens[k] / (round_done_s[k] - prev));
      }
      prev = std::max(prev, round_done_s[k]);
    }
    return median(rates);
  }
  double cpu_ms_per_ktok() const { return 1e3 * cpu_s / (tokens / 1e3); }
};

swat::InferenceRequest to_inference(const Request& r) {
  swat::InferenceRequest ir;
  ir.id = r.id;
  ir.input = r.input;
  ir.priority = r.priority;
  return ir;
}

/// Runs whole rounds of the workload until `seconds` have passed at a
/// round boundary. With `spans` non-null, records one span per served
/// request.
Phase run_phase(swat::Server& server, const Workload& w, double seconds,
                Checker& check, std::vector<RequestSpan>* spans) {
  Phase p;
  const std::size_t n = w.round.size();
  const CpuStat stat0 = read_cpu_stat();
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto record = [&](const Request& r, double due_s, double submit_s,
                          std::size_t round, swat::RequestResult& res) {
    const double turnaround = res.counters.turnaround.value;
    p.tokens += static_cast<double>(r.input.rows());
    p.round_tokens[round] += static_cast<double>(r.input.rows());
    p.round_done_s[round] = std::max(p.round_done_s[round], submit_s + turnaround);
    p.latency_ms[round].push_back(1e3 * (submit_s - due_s + turnaround));
    check.on_result(r.id, res.output);
    if (spans != nullptr) {
      spans->push_back({r.id, r.input.rows(), r.priority, due_s, submit_s,
                        res.counters.queue_delay.value, turnaround,
                        res.counters.batch_index, &r.input});
    }
  };
  struct InFlight {
    const Request* r;
    swat::Server::Ticket ticket;
    double due_s;
    double submit_s;
    std::size_t round;
  };
  std::deque<InFlight> inflight;
  const auto settle = [&](InFlight& f) {
    ++p.attempted;
    try {
      swat::RequestResult res = f.ticket.get();
      record(*f.r, f.due_s, f.submit_s, f.round, res);
    } catch (const std::exception& e) {
      ++p.failed;
      check.on_failure(f.r->id, e.what());
    }
  };
  const auto now_s = [&] { return seconds_between(start, Clock::now()); };
  double due = 0.0;
  const bool open = w.loop == Loop::kOpen;
  for (std::size_t i = 0;; ++i) {
    if (i % n == 0 && i > 0) {
      ++p.rounds;
      // The open loop ends with its schedule, the closed loops on the clock.
      if (open ? i == w.schedule.size() : now_s() >= seconds) break;
    }
    if (i % n == 0) {
      p.round_tokens.push_back(0.0);
      p.round_done_s.push_back(0.0);
      p.latency_ms.emplace_back();
    }
    const Request& r = w.round[w.schedule[i % w.schedule.size()]];
    swat::InferenceRequest ir = to_inference(r);
    if (open) {
      due += w.gaps_s[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due)));
    }
    const double submit_s = now_s();
    const double due_s = open ? due : submit_s;
    if (open) p.lateness_ms.push_back(1e3 * (submit_s - due_s));
    inflight.push_back({&r, server.submit(std::move(ir)), due_s, submit_s, i / n});
    if (w.loop == Loop::kClosedOne) {
      settle(inflight.front());
      inflight.pop_front();
    } else if (w.loop == Loop::kClosedWindow) {
      while (inflight.size() >= w.outstanding) {
        settle(inflight.front());
        inflight.pop_front();
      }
    } else {
      // Open loop: reap what has finished without blocking the schedule.
      while (!inflight.empty() &&
             inflight.front().ticket.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        settle(inflight.front());
        inflight.pop_front();
      }
    }
  }
  while (!inflight.empty()) {
    settle(inflight.front());
    inflight.pop_front();
  }
  p.wall_s = now_s();
  p.cpu_s = process_cpu_seconds() - cpu0;
  p.steal = steal_share(stat0, read_cpu_stat());
  return p;
}

/// Serves one request of every length class so every plan the workload's
/// single requests need is compiled (both replicas of a multi-replica
/// pool get a pair).
void warm_up(swat::Server& server, const Workload& w, Checker& check) {
  std::set<std::int64_t> classes;
  for (const Request& r : w.round) {
    if (r.scaled || !classes.insert(r.length_class).second) continue;
    std::vector<swat::Server::Ticket> tickets;
    for (std::size_t k = 0; k < std::max<std::size_t>(1, w.opt.num_replicas); ++k) {
      tickets.push_back(server.submit(to_inference(r)));
    }
    for (auto& t : tickets) check.on_result(r.id, t.get().output);
  }
}

void print_metric(bool& first, const std::string& name, double value,
                  const std::string& unit) {
  std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
              first ? "" : ", ", name.c_str(), value, unit.c_str());
  first = false;
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed, o.smoke, o.seconds);
  std::printf("# host %s\n", host_fingerprint_json().c_str());
  Checker check(w);

  // Set-up: Server construction (weight build, pack, thread start) plus
  // warm-up. Repeated and reported as the median; the last server serves.
  std::vector<double> setup_s;
  std::unique_ptr<swat::Server> server;
  for (int i = 0; i < (o.trace ? 1 : 3); ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<swat::Server>(w.cfg, w.opt);
    warm_up(*server, w, check);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  Phase phase = run_phase(*server, w, o.seconds, check, nullptr);
  std::int64_t attempted = phase.attempted;
  std::int64_t failed = phase.failed;
  std::vector<LayerMetric> layer_metrics;
  std::vector<TraceSpan> trace;
  if (o.trace) {
    // The untraced phase above is the baseline the traced phase states
    // its overhead against.
    std::vector<RequestSpan> spans;
    spans.reserve(1 << 16);
    const swat::ServerStats before = server->stats();
    Phase traced = run_phase(*server, w, o.seconds, check, &spans);
    const swat::ServerStats after = server->stats();
    attempted += traced.attempted;
    failed += traced.failed;
    for (const RequestSpan& s : spans) {
      const double t0 = 1e6 * s.submit_s;  // traced-phase clock
      if (w.loop == Loop::kOpen) {
        trace.push_back({"request.late", "loadgen", 1e6 * s.due_s,
                         t0 - 1e6 * s.due_s, 1, static_cast<std::int64_t>(s.id)});
      }
      trace.push_back({"request.queue", "server", t0, 1e6 * s.queue_s, 1,
                       static_cast<std::int64_t>(s.id)});
      trace.push_back({"request.exec", "server", t0 + 1e6 * s.queue_s,
                       1e6 * (s.turnaround_s - s.queue_s), 1, s.batch_index});
    }
    std::string replay_error;
    layer_metrics =
        replay_layers(w, spans, *server, before, after, trace, replay_error);
    if (!replay_error.empty()) check.fail(replay_error);
    std::printf(
        "# trace overhead: cpu_ms_per_ktok untraced %.4f traced %.4f "
        "(%+.2f%%); tok_s untraced %.1f traced %.1f; %zu spans\n",
        phase.cpu_ms_per_ktok(), traced.cpu_ms_per_ktok(),
        100.0 * (traced.cpu_ms_per_ktok() / phase.cpu_ms_per_ktok() - 1.0),
        phase.tok_s(), traced.tok_s(), trace.size());
    phase = std::move(traced);
  }

  // Peak RSS of the workload itself: the checks below may compile a plan
  // for the locality prefix.
  const double rss_mib = peak_rss_mib();
  check.final_checks(*server, o.flip_one);
  if (o.trace && !o.trace_out.empty()) write_chrome_trace(o.trace_out, trace);

  std::printf(
      "# run-record {\"workload\": \"%s\", \"seed\": %llu, \"smoke\": %s, "
      "\"rounds\": %lld, \"attempted\": %lld, \"failed\": %lld, "
      "\"scaled_docs_failed\": %zu, \"steal_share\": %.4f, "
      "\"generator_late_p99_ms\": %.4f, \"wall_s\": %.3f, "
      "\"pooled_tok_s\": %.2f, "
      "\"pooled_latency_p50_ms\": %.4f, \"pooled_latency_p99_ms\": %.4f, "
      "\"reference_checked\": %d, \"max_ref_error\": %.3g, "
      "\"locality_rows\": %lld}\n",
      w.name.c_str(), static_cast<unsigned long long>(o.seed),
      o.smoke ? "true" : "false", static_cast<long long>(phase.rounds),
      static_cast<long long>(attempted), static_cast<long long>(failed),
      check.scaled_failures(), phase.steal,
      phase.lateness_ms.empty() ? 0.0 : quantile(phase.lateness_ms, 0.99),
      phase.wall_s, phase.tokens / phase.wall_s, phase.latency_pooled(0.5),
      phase.latency_pooled(0.99),
      check.reference_checked(), check.max_ref_error(),
      static_cast<long long>(check.locality_rows()));
  for (const std::string& e : check.errors()) {
    std::printf("# check failed: %s\n", e.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              check.ok() ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  if (o.trace) {
    for (const LayerMetric& m : layer_metrics) {
      print_metric(first, m.name, m.value, m.unit);
    }
  } else {
    print_metric(first, "setup_s", median(setup_s), "s");
    print_metric(first, "tok_s", phase.tok_s(), "tok/s");
    print_metric(first, "cpu_ms_per_ktok", phase.cpu_ms_per_ktok(), "ms");
    print_metric(first, "latency_p50_ms", phase.latency(0.5), "ms");
    print_metric(first, "latency_p99_ms", phase.latency(0.99), "ms");
    print_metric(first, "peak_rss_mib", rss_mib, "MiB");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return check.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  // A fixed mmap threshold: every buffer of 1 MiB or more (plan arenas,
  // inputs, outputs) is mapped on allocation and unmapped on free. glibc's
  // default threshold adapts to the sizes freed, so peak RSS would depend
  // on the order in which the repeated set-ups free their arenas.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swat_perfbench: %s\n", e.what());
    return 3;
  }
}
