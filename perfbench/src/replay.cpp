// Per-layer metrics of a traced run. Server-level figures come from the
// recorded request spans and stats() deltas; engine, stage and thread-pool
// figures come from replaying the recorded batch shapes through the public
// calls of each layer: BatchExecutor::execute and Engine::run as a whole,
// and stage by stage through Linear::forward_into / forward_gelu_into /
// forward_residual_into, LayerNorm::forward_into and
// attn::fused_window_attention_batch_into.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>

#include "attention/fused.hpp"
#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "runtime/cost_model.hpp"
#include "tensor/kernels.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

enum Stage { kQkv, kAttention, kOutProj, kLayerNorm, kFfnExpand, kFfnContract, kStages };
constexpr const char* kStageNames[kStages] = {
    "qkv", "attention", "out_proj", "layer_norm", "ffn_expand_gelu",
    "ffn_contract"};

struct Batch {
  std::int64_t index = -1;
  std::vector<const RequestSpan*> members;
  std::int64_t rows() const {
    std::int64_t r = 0;
    for (const RequestSpan* m : members) r += m->rows;
    return r;
  }
  swat::BatchPlanEntry entry() const {
    swat::BatchPlanEntry e;
    e.priority = members.front()->priority;
    e.offsets.push_back(0);
    for (std::size_t i = 0; i < members.size(); ++i) {
      e.request_indices.push_back(i);
      e.offsets.push_back(e.offsets.back() + members[i]->rows);
    }
    return e;
  }
};

/// The six stages of one encoder forward, each timed around its public
/// calls. Produces the same output as Engine::run on the same batch.
class StageReplay {
 public:
  StageReplay(const swat::model::EncoderConfig& cfg)
      : cfg_(cfg), layers_(rebuild_weights(cfg)) {
    for (LayerWeights& l : layers_) {
      for (swat::model::Linear* lin :
           {&l.wq, &l.wk, &l.wv, &l.wo, &l.ffn1, &l.ffn2}) {
        lin->packed_weight();  // pack outside the timed region
      }
    }
  }

  const swat::MatrixF& run(const swat::MatrixF& packed,
                           std::span<const std::int64_t> offsets,
                           double (&stage_s)[kStages]) {
    const std::int64_t heads = cfg_.num_heads;
    const float scale =
        1.0f / std::sqrt(static_cast<float>(cfg_.d_model / heads));
    const swat::MatrixF* x = &packed;
    swat::MatrixF* out = &ping_;
    for (const LayerWeights& l : layers_) {
      auto t = Clock::now();
      const auto lap = [&](Stage s) {
        const auto now = Clock::now();
        stage_s[s] += seconds_between(t, now);
        t = now;
      };
      l.wq.forward_into(*x, q_);
      l.wk.forward_into(*x, k_);
      l.wv.forward_into(*x, v_);
      lap(kQkv);
      concat_.reshape(x->rows(), cfg_.d_model);
      swat::attn::fused_window_attention_batch_into(
          q_, k_, v_, offsets, heads, cfg_.swat.window_before(),
          cfg_.swat.window_after(), scale, concat_, cfg_.stream_dtype);
      lap(kAttention);
      l.wo.forward_into(concat_, attn_out_);
      swat::add_rows_into(attn_out_, *x, attn_out_);
      lap(kOutProj);
      l.norm1.forward_into(attn_out_, norm1_out_);
      lap(kLayerNorm);
      l.ffn1.forward_gelu_into(norm1_out_, hidden_);
      lap(kFfnExpand);
      l.ffn2.forward_residual_into(hidden_, norm1_out_, ffn_out_);
      lap(kFfnContract);
      l.norm2.forward_into(ffn_out_, *out);
      lap(kLayerNorm);
      x = out;
      out = out == &ping_ ? &pong_ : &ping_;
    }
    return *x;
  }

 private:
  swat::model::EncoderConfig cfg_;
  std::vector<LayerWeights> layers_;
  swat::MatrixF q_, k_, v_, concat_, attn_out_, norm1_out_, hidden_, ffn_out_,
      ping_, pong_;
};

/// Batches to replay: every distinct row class once for long documents
/// (whole classes are expensive), otherwise the recorded batches in order
/// up to a token budget.
std::vector<const Batch*> choose(const std::vector<Batch>& batches,
                                 bool one_per_class, std::int64_t budget) {
  std::vector<const Batch*> chosen;
  std::map<std::int64_t, bool> seen;
  std::int64_t tokens = 0;
  for (const Batch& b : batches) {
    if (one_per_class) {
      if (seen[(b.rows() - 1) / 64]) continue;
      seen[(b.rows() - 1) / 64] = true;
    } else if (tokens >= budget) {
      break;
    }
    chosen.push_back(&b);
    tokens += b.rows();
  }
  return chosen;
}

}  // namespace

std::vector<LayerMetric> replay_layers(const Workload& w,
                                       const std::vector<RequestSpan>& spans,
                                       const swat::Server& server,
                                       const swat::ServerStats& before,
                                       const swat::ServerStats& after,
                                       std::vector<TraceSpan>& trace,
                                       std::string& error) {
  std::vector<LayerMetric> m;
  // ---- runtime.server: from the recorded spans and stats() deltas.
  std::vector<double> queue_ms, exec_ms;
  std::map<std::int64_t, Batch> by_index;
  for (const RequestSpan& s : spans) {
    queue_ms.push_back(1e3 * s.queue_s);
    exec_ms.push_back(1e3 * (s.turnaround_s - s.queue_s));
    Batch& b = by_index[s.batch_index];
    b.index = s.batch_index;
    b.members.push_back(&s);
  }
  std::vector<Batch> batches;
  for (auto& [index, b] : by_index) batches.push_back(std::move(b));
  const double batches_run =
      static_cast<double>(after.batches - before.batches);
  std::int64_t stolen = 0;
  for (std::size_t r = 0; r < after.replicas.size(); ++r) {
    stolen += after.replicas[r].batches_stolen -
              (r < before.replicas.size() ? before.replicas[r].batches_stolen : 0);
  }
  m.push_back({"server.queue_wait_p50_ms", median(queue_ms), "ms"});
  m.push_back({"server.exec_p50_ms", median(exec_ms), "ms"});
  m.push_back({"server.requests_per_batch",
               static_cast<double>(spans.size()) / std::max(batches_run, 1.0),
               "req/batch"});
  m.push_back({"server.batches_stolen", static_cast<double>(stolen), "count"});

  // ---- runtime.cost_model: |ln(predict / measured exec)| per batch. Every
  // member of a batch shares its exec interval (finish - start).
  const swat::BatchCostModel cost_model(w.cfg);
  std::vector<double> log_err;
  for (const Batch& b : batches) {
    const double measured = b.members.front()->turnaround_s -
                            b.members.front()->queue_s;
    const double predicted = cost_model.predict(b.entry()).value;
    if (measured > 0.0 && predicted > 0.0) {
      log_err.push_back(std::abs(std::log(predicted / measured)));
    }
  }
  m.push_back({"cost_model.abs_log_err_p50", median(log_err), "ln"});

  // ---- runtime.executor / runtime.engine / stages: replay.
  std::unique_ptr<swat::ThreadPool> own_pool;
  if (w.opt.placement == swat::PlacementPolicy::kPartitioned &&
      w.opt.num_replicas > 1) {
    // A partitioned replica runs on its own pool of nproc / replicas
    // threads; replay on a pool of the same width.
    own_pool = std::make_unique<swat::ThreadPool>(std::max(
        1, swat::num_threads() / static_cast<int>(w.opt.num_replicas)));
  }
  swat::ThreadPool& pool =
      own_pool ? *own_pool : swat::ThreadPool::instance();
  const bool long_docs = w.loop == Loop::kClosedOne;
  const std::vector<const Batch*> chosen =
      choose(batches, long_docs, long_docs ? 0 : 30000);
  std::int64_t max_rows = 1;
  for (const Batch* b : chosen) max_rows = std::max(max_rows, b->rows());

  swat::BatchExecutor executor(w.cfg, w.opt.batching, own_pool.get());
  swat::ExecutionPlan plan = executor.engine().make_plan(max_rows);
  StageReplay stages(w.cfg);
  double exec_s = 0.0, run_s = 0.0, stage_s[kStages] = {};
  double tokens = 0.0, kv_bytes = 0.0, gemm_flops = 0.0;
  const std::int64_t d = w.cfg.d_model;
  const std::int64_t f = d * w.cfg.ffn_mult;
  std::map<std::int64_t, bool> warmed;
  // Largest batch first; its first Engine::run and stage replay fault the
  // plan arena and the stage scratch in outside the timed calls.
  std::vector<const Batch*> order = chosen;
  std::stable_sort(order.begin(), order.end(),
                   [](const Batch* a, const Batch* b) { return a->rows() > b->rows(); });
  bool touched = false;
  const auto phase0 = Clock::now();
  const auto us_since = [&](Clock::time_point t) {
    return 1e6 * seconds_between(phase0, t);
  };
  for (const Batch* b : order) {
    const swat::BatchPlanEntry entry = b->entry();
    std::vector<swat::InferenceRequest> reqs(b->members.size());
    std::vector<const swat::InferenceRequest*> ptrs;
    swat::MatrixF packed(b->rows(), d);
    for (std::size_t i = 0; i < b->members.size(); ++i) {
      reqs[i].id = b->members[i]->id;
      reqs[i].input = *b->members[i]->input;
      reqs[i].priority = b->members[i]->priority;
      ptrs.push_back(&reqs[i]);
      const swat::MatrixF& in = *b->members[i]->input;
      std::copy(in.flat().begin(), in.flat().end(),
                packed.data() + entry.offsets[i] * d);
    }
    // The executor compiles a plan per row class on first use: do that
    // outside the timed calls.
    if (!warmed[(b->rows() - 1) / 64]) {
      warmed[(b->rows() - 1) / 64] = true;
      executor.execute(entry, ptrs);
    }
    if (!touched) {
      touched = true;
      swat::ScopedPoolBinding bind(own_pool.get());
      double unused[kStages] = {};
      executor.engine().run(plan, packed, entry.offsets);
      stages.run(packed, entry.offsets, unused);
    }
    auto t0 = Clock::now();
    executor.execute(entry, ptrs);
    auto t1 = Clock::now();
    const swat::MatrixF& engine_out = [&]() -> const swat::MatrixF& {
      swat::ScopedPoolBinding bind(own_pool.get());
      return executor.engine().run(plan, packed, entry.offsets);
    }();
    auto t2 = Clock::now();
    double lap[kStages] = {};
    const swat::MatrixF* stage_out = nullptr;
    {
      swat::ScopedPoolBinding bind(own_pool.get());
      stage_out = &stages.run(packed, entry.offsets, lap);
    }
    if (!(*stage_out == engine_out)) {
      error = "stage replay of batch " + std::to_string(b->index) +
              " differs from Engine::run";
    }
    exec_s += seconds_between(t0, t1);
    run_s += seconds_between(t1, t2);
    trace.push_back({"replay.execute", "executor", us_since(t0),
                     1e6 * seconds_between(t0, t1), 2, b->index});
    trace.push_back({"replay.engine_run", "engine", us_since(t1),
                     1e6 * seconds_between(t1, t2), 2, b->index});
    double at = us_since(t2);
    for (int s = 0; s < kStages; ++s) {
      stage_s[s] += lap[s];
      trace.push_back({std::string("stage.") + kStageNames[s], "stage", at,
                       1e6 * lap[s], 3, b->index});
      at += 1e6 * lap[s];
    }
    tokens += static_cast<double>(b->rows());
    gemm_flops += 2.0 * static_cast<double>(b->rows()) *
                  static_cast<double>(4 * d * d + 2 * d * f) * w.cfg.layers;
    for (const RequestSpan* s : b->members) {
      kv_bytes += static_cast<double>(swat::attn::fused_window_kv_stream_bytes(
                      s->rows, w.cfg.num_heads, d / w.cfg.num_heads,
                      w.cfg.swat.window_before(), w.cfg.swat.window_after(),
                      w.cfg.stream_dtype)) *
                  w.cfg.layers;
    }
  }
  const double ktok = std::max(tokens, 1.0) / 1000.0;
  double stage_sum = 0.0;
  for (double s : stage_s) stage_sum += s;
  m.push_back({"executor.overhead_ms_per_ktok", 1e3 * (exec_s - run_s) / ktok,
               "ms/ktok"});
  m.push_back({"executor.plan_arena_mib",
               static_cast<double>(server.plan_arena_floats()) * 4.0 / kMiB,
               "MiB"});
  m.push_back({"engine.run_ms_per_ktok", 1e3 * run_s / ktok, "ms/ktok"});
  m.push_back({"engine.packed_weight_mib",
               static_cast<double>(server.packed_weight_bytes()) / kMiB, "MiB"});
  for (int s = 0; s < kStages; ++s) {
    m.push_back({std::string("stage.") + kStageNames[s] + "_ms_per_ktok",
                 1e3 * stage_s[s] / ktok, "ms/ktok"});
  }
  m.push_back({"attention.kv_stream_mib_per_ktok", kv_bytes / kMiB / ktok,
               "MiB/ktok"});
  const double gemm_s = stage_s[kQkv] + stage_s[kOutProj] +
                        stage_s[kFfnExpand] + stage_s[kFfnContract];
  m.push_back({"tensor.gemm_gflops",
               gemm_s > 0.0 ? gemm_flops / gemm_s / 1e9 : 0.0, "GFLOP/s"});

  // ---- common.thread_pool: an empty parallel_for round trip, and the
  // engine time no stage accounts for.
  // Each of the pool's threads must take one chunk: the body waits until
  // all have arrived (bounded, in case a worker never comes), so the
  // round trip includes waking every worker and joining them.
  std::vector<double> fork_join_us;
  const std::int64_t width = pool.num_threads();
  for (int i = 0; i < 2000; ++i) {
    std::atomic<std::int64_t> arrived{0};
    const auto t0 = Clock::now();
    swat::parallel_for(pool, 0, width, 1, [&](std::int64_t, std::int64_t) {
      arrived.fetch_add(1);
      const auto limit = Clock::now() + std::chrono::milliseconds(10);
      while (arrived.load() < width && Clock::now() < limit) {
      }
    });
    fork_join_us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  m.push_back({"thread_pool.fork_join_us", median(fork_join_us), "us"});
  m.push_back({"thread_pool.unattributed_ms_per_ktok",
               1e3 * (run_s - stage_sum) / ktok, "ms/ktok"});
  return m;
}

}  // namespace perfbench
