// The three workloads: model, server options and the inputs of one round,
// all made from --seed (long_doc's 4x documents excepted: they are fixed).
#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kBucket = 64;  // BatchingOptions::bucket_width default

swat::model::EncoderConfig model_config(std::int64_t window_cores,
                                        int layers = 4) {
  swat::model::EncoderConfig cfg;
  cfg.d_model = 256;
  cfg.num_heads = 4;
  cfg.ffn_mult = 4;
  cfg.layers = layers;
  cfg.backend = swat::model::AttentionBackend::kFusedStreaming;
  cfg.swat.head_dim = 64;
  cfg.swat.window_cores = window_cores;
  cfg.weight_seed = 2024;
  cfg.pack_dtype = swat::Dtype::kFp32;
  cfg.stream_dtype = swat::Dtype::kFp32;
  return cfg;
}

Request make_request(std::uint64_t id, std::int64_t rows, std::int64_t d,
                     double scale, std::mt19937_64& rng) {
  Request r;
  r.id = id;
  r.input.reshape(rows, d);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  for (float& v : r.input.flat()) v = static_cast<float>(scale) * normal(rng);
  r.length_class = (rows - 1) / kBucket;
  return r;
}

/// n lengths, log-uniform on [lo, hi], stratified: one draw per 1/n
/// quantile slice, so every seed gets the same length profile and only the
/// values inside each slice (and the order) move with the seed.
std::vector<std::int64_t> stratified_log_uniform(std::size_t n, double lo,
                                                 double hi,
                                                 std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::int64_t> lengths(n);
  const double span = std::log(hi / lo);
  for (std::size_t i = 0; i < n; ++i) {
    const double q = (static_cast<double>(i) + u(rng)) / static_cast<double>(n);
    lengths[i] = std::clamp(static_cast<std::int64_t>(std::lround(lo * std::exp(q * span))),
                            static_cast<std::int64_t>(lo),
                            static_cast<std::int64_t>(hi));
  }
  return lengths;
}

/// Appends `rounds` seeded permutations of the round to the schedule, so
/// every round runs the same requests in a fresh order and no order effect
/// repeats in every round of a run.
void permute_rounds(Workload& w, std::size_t rounds, std::mt19937_64& rng) {
  std::vector<std::size_t> order(w.round.size());
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    w.schedule.insert(w.schedule.end(), order.begin(), order.end());
  }
}

// Closed loops run until the clock says stop; this many distinct round
// orders outlast any run (the schedule wraps after them).
constexpr std::size_t kClosedRounds = 256;

Workload long_doc(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "long_doc";
  w.cfg = model_config(512);  // the paper's Longformer-512 window
  w.loop = Loop::kClosedOne;
  w.locality_check = true;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const std::int64_t div = smoke ? 8 : 1;
  // Seven standard-normal documents; every length sits at the top of its
  // 64-row plan bucket minus a seeded jitter inside the bucket, so the
  // length classes (and the plans they compile) are the same for every
  // seed. The median class (4096) is the most common, so latency_p50_ms
  // is a median over several documents of one class, not one document.
  const std::int64_t tops[] = {2048, 2048, 4096, 4096, 4096, 8192, 16384};
  std::uniform_int_distribution<std::int64_t> jitter(0, kBucket - 1);
  std::uint64_t id = 0;
  for (const std::int64_t top : tops) {
    w.round.push_back(make_request(id++, top / div - jitter(rng),
                                   w.cfg.d_model, 1.0, rng));
  }
  // The eighth document is drawn at 4x the standard-normal scale from a
  // fixed seed, at a length from the same mix: its inputs do not depend on
  // --seed, so whether it fails does not either.
  std::mt19937_64 fixed(0x4A11D0C5ull);
  Request scaled = make_request(id++, 4096 / div, w.cfg.d_model, 4.0, fixed);
  scaled.scaled = true;
  w.round.push_back(std::move(scaled));
  permute_rounds(w, kClosedRounds, rng);
  return w;
}

Workload serve_open(std::uint64_t seed, bool smoke, double seconds) {
  Workload w;
  w.name = "serve_open";
  w.cfg = model_config(64, 2);
  w.loop = Loop::kOpen;
  w.opt.num_replicas = 2;
  w.opt.placement = swat::PlacementPolicy::kPartitioned;
  w.opt.share_weight_pack = true;
  w.opt.replica_queue_depth = 1;
  // A fixed absolute rate, about a third of what this configuration serves
  // on the 4-core reference host (see README); never calibrated per run.
  // Two layers instead of four keep that rate high enough for a 20 s run
  // to hold >= 1000 requests, so at least 10 lie beyond p99.
  w.rate_per_s = 55.0;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 2);
  const std::size_t n = smoke ? 44 : 220;  // one round: 4 s of arrivals
  const auto lengths = stratified_log_uniform(n, 32.0, 256.0, rng);
  const std::size_t interactive = n * 7 / 10;
  std::exponential_distribution<double> gap(w.rate_per_s);
  for (std::size_t i = 0; i < n; ++i) {
    Request r = make_request(i, lengths[i], w.cfg.d_model, 1.0, rng);
    r.priority = i < interactive ? swat::Priority::kInteractive
                                 : swat::Priority::kBulk;
    w.round.push_back(std::move(r));
  }
  // The arrival schedule covers the whole run: every round serves each
  // request once, in a fresh order, at fresh Poisson gaps conditioned on
  // the round's count (exponential gaps rescaled to span exactly n / rate
  // seconds). Every seed offers the same load, and burst patterns do not
  // repeat from round to round.
  const std::size_t rounds = static_cast<std::size_t>(
      std::max(1.0, std::ceil(seconds * w.rate_per_s / static_cast<double>(n) - 1e-9)));
  permute_rounds(w, rounds, rng);
  for (std::size_t k = 0; k < rounds; ++k) {
    double total = 0.0;
    std::vector<double> gaps(n);
    for (double& g : gaps) total += (g = gap(rng));
    for (const double g : gaps) {
      w.gaps_s.push_back(g * static_cast<double>(n) / w.rate_per_s / total);
    }
  }
  return w;
}

Workload bulk_encode(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "bulk_encode";
  w.cfg = model_config(64);
  w.loop = Loop::kClosedWindow;
  w.outstanding = smoke ? 8 : 32;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 3);
  const std::size_t n = smoke ? 16 : 64;
  const auto lengths = stratified_log_uniform(n, 32.0, 512.0, rng);
  for (std::size_t i = 0; i < n; ++i) {
    Request r = make_request(i, lengths[i], w.cfg.d_model, 1.0, rng);
    r.priority = swat::Priority::kBulk;
    w.round.push_back(std::move(r));
  }
  permute_rounds(w, kClosedRounds, rng);
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"long_doc", "serve_open",
                                                 "bulk_encode"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke, double seconds) {
  if (name == "long_doc") return long_doc(seed, smoke);
  if (name == "serve_open") return serve_open(seed, smoke, seconds);
  if (name == "bulk_encode") return bulk_encode(seed, smoke);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
