// An independent double-precision reference encoder: naive GEMMs, window
// softmax with max-subtraction, tanh GELU and LayerNorm, over weights
// rebuilt through the public Linear / LayerNorm constructors. It shares no
// arithmetic with the library's kernels.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <thread>

#include "bench.hpp"

namespace perfbench {

LayerWeights::LayerWeights(const swat::model::EncoderConfig& cfg,
                           swat::Rng& rng)
    : wq(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
      wk(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
      wv(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
      wo(cfg.d_model, cfg.d_model, rng, cfg.pack_dtype),
      ffn1(cfg.d_model, cfg.d_model * cfg.ffn_mult, rng, cfg.pack_dtype),
      ffn2(cfg.d_model * cfg.ffn_mult, cfg.d_model, rng, cfg.pack_dtype),
      norm1(cfg.d_model),
      norm2(cfg.d_model) {}

std::vector<LayerWeights> rebuild_weights(
    const swat::model::EncoderConfig& cfg) {
  // The encoder draws every layer's weights from one Rng seeded with
  // weight_seed: per layer W_q, W_k, W_v, W_o, then FFN expand, contract.
  swat::Rng rng(cfg.weight_seed);
  std::vector<LayerWeights> layers;
  layers.reserve(static_cast<std::size_t>(cfg.layers));
  for (int l = 0; l < cfg.layers; ++l) layers.emplace_back(cfg, rng);
  return layers;
}

namespace {

constexpr double kLayerNormEps = 1e-5;  // LayerNorm's default epsilon

std::vector<double> transposed(const swat::model::Linear& lin) {
  const std::int64_t in = lin.in_features();
  const std::int64_t out = lin.out_features();
  std::vector<double> t(static_cast<std::size_t>(in * out));
  for (std::int64_t o = 0; o < out; ++o) {
    for (std::int64_t k = 0; k < in; ++k) {
      t[static_cast<std::size_t>(k * out + o)] = lin.weight()(o, k);
    }
  }
  return t;
}

std::vector<double> to_double(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

/// Runs fn(r0, r1) over [0, n) split across the host's cores.
template <typename Fn>
void parallel_rows(std::int64_t n, const Fn& fn) {
  const std::int64_t t = std::clamp<std::int64_t>(
      std::thread::hardware_concurrency(), 1, std::max<std::int64_t>(n, 1));
  std::vector<std::thread> threads;
  for (std::int64_t i = 0; i < t; ++i) {
    const std::int64_t r0 = n * i / t;
    const std::int64_t r1 = n * (i + 1) / t;
    threads.emplace_back([&fn, r0, r1] { fn(r0, r1); });
  }
  for (auto& th : threads) th.join();
}

/// y (out) = b + x (in) . Wt, with Wt stored in x out.
void affine(const double* x, const std::vector<double>& wt,
            const std::vector<double>& b, std::int64_t in, double* y) {
  const std::int64_t out = static_cast<std::int64_t>(b.size());
  std::copy(b.begin(), b.end(), y);
  for (std::int64_t k = 0; k < in; ++k) {
    const double xk = x[k];
    const double* w = wt.data() + k * out;
    for (std::int64_t o = 0; o < out; ++o) y[o] += xk * w[o];
  }
}

void layer_norm(double* v, std::int64_t d, const std::vector<double>& g,
                const std::vector<double>& b) {
  double mean = 0.0;
  for (std::int64_t j = 0; j < d; ++j) mean += v[j];
  mean /= static_cast<double>(d);
  double var = 0.0;
  for (std::int64_t j = 0; j < d; ++j) var += (v[j] - mean) * (v[j] - mean);
  var /= static_cast<double>(d);
  const double inv = 1.0 / std::sqrt(var + kLayerNormEps);
  for (std::int64_t j = 0; j < d; ++j) v[j] = (v[j] - mean) * inv * g[j] + b[j];
}

double gelu(double x) {
  const double c = std::sqrt(2.0 / std::numbers::pi);
  return 0.5 * x * (1.0 + std::tanh(c * (x + 0.044715 * x * x * x)));
}

}  // namespace

Reference::Reference(const swat::model::EncoderConfig& cfg) : cfg_(cfg) {
  std::vector<LayerWeights> weights = rebuild_weights(cfg);
  for (LayerWeights& w : weights) {
    Layer l;
    l.wq = transposed(w.wq);
    l.wk = transposed(w.wk);
    l.wv = transposed(w.wv);
    l.wo = transposed(w.wo);
    l.w1 = transposed(w.ffn1);
    l.w2 = transposed(w.ffn2);
    l.bq = to_double(w.wq.bias());
    l.bk = to_double(w.wk.bias());
    l.bv = to_double(w.wv.bias());
    l.bo = to_double(w.wo.bias());
    l.b1 = to_double(w.ffn1.bias());
    l.b2 = to_double(w.ffn2.bias());
    l.g1 = to_double(w.norm1.gamma());
    l.be1 = to_double(w.norm1.beta());
    l.g2 = to_double(w.norm2.gamma());
    l.be2 = to_double(w.norm2.beta());
    layers_.push_back(std::move(l));
  }
}

std::vector<double> Reference::rows(const swat::MatrixF& x, std::int64_t r0,
                                    std::int64_t r1) const {
  const std::int64_t n = x.rows();
  const std::int64_t d = cfg_.d_model;
  const std::int64_t heads = cfg_.num_heads;
  const std::int64_t hd = d / heads;
  const std::int64_t f = d * cfg_.ffn_mult;
  const std::int64_t wb = cfg_.swat.window_before();
  const std::int64_t wa = cfg_.swat.window_after();
  const std::size_t nl = layers_.size();
  // The dependency cone: output rows [a[l], b[l]) of layer l need input
  // rows [a[l-1], b[l-1]).
  std::vector<std::int64_t> a(nl + 1), b(nl + 1);
  a[nl] = r0;
  b[nl] = r1;
  for (std::size_t l = nl; l > 0; --l) {
    a[l - 1] = std::max<std::int64_t>(0, a[l] - wb);
    b[l - 1] = std::min<std::int64_t>(n, b[l] + wa);
  }
  std::vector<double> cur(static_cast<std::size_t>((b[0] - a[0]) * d));
  for (std::int64_t i = a[0]; i < b[0]; ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      cur[static_cast<std::size_t>((i - a[0]) * d + j)] = x(i, j);
    }
  }
  const double scale = 1.0 / std::sqrt(static_cast<double>(hd));
  for (std::size_t l = 1; l <= nl; ++l) {
    const Layer& w = layers_[l - 1];
    const std::int64_t in0 = a[l - 1], in_rows = b[l - 1] - a[l - 1];
    const std::int64_t out0 = a[l], out_rows = b[l] - a[l];
    std::vector<double> k(static_cast<std::size_t>(in_rows * d));
    std::vector<double> v(k.size());
    parallel_rows(in_rows, [&](std::int64_t s, std::int64_t e) {
      for (std::int64_t r = s; r < e; ++r) {
        affine(&cur[static_cast<std::size_t>(r * d)], w.wk, w.bk, d, &k[static_cast<std::size_t>(r * d)]);
        affine(&cur[static_cast<std::size_t>(r * d)], w.wv, w.bv, d, &v[static_cast<std::size_t>(r * d)]);
      }
    });
    std::vector<double> next(static_cast<std::size_t>(out_rows * d));
    parallel_rows(out_rows, [&](std::int64_t s, std::int64_t e) {
      std::vector<double> q(d), z(d), att(d), hid(f), scores;
      for (std::int64_t r = s; r < e; ++r) {
        const std::int64_t i = out0 + r;  // sequence row
        const double* xi = &cur[static_cast<std::size_t>((i - in0) * d)];
        affine(xi, w.wq, w.bq, d, q.data());
        const std::int64_t lo = std::max<std::int64_t>(0, i - wb);
        const std::int64_t hi = std::min<std::int64_t>(n - 1, i + wa);
        scores.resize(static_cast<std::size_t>(hi - lo + 1));
        for (std::int64_t h = 0; h < heads; ++h) {
          double m = -std::numeric_limits<double>::infinity();
          for (std::int64_t j = lo; j <= hi; ++j) {
            const double* kj = &k[static_cast<std::size_t>((j - in0) * d + h * hd)];
            double dot = 0.0;
            for (std::int64_t c = 0; c < hd; ++c) dot += q[static_cast<std::size_t>(h * hd + c)] * kj[c];
            scores[static_cast<std::size_t>(j - lo)] = dot * scale;
            m = std::max(m, dot * scale);
          }
          double denom = 0.0;
          for (double& sc : scores) {
            sc = std::exp(sc - m);
            denom += sc;
          }
          for (std::int64_t c = 0; c < hd; ++c) z[static_cast<std::size_t>(h * hd + c)] = 0.0;
          for (std::int64_t j = lo; j <= hi; ++j) {
            const double p = scores[static_cast<std::size_t>(j - lo)] / denom;
            const double* vj = &v[static_cast<std::size_t>((j - in0) * d + h * hd)];
            for (std::int64_t c = 0; c < hd; ++c) z[static_cast<std::size_t>(h * hd + c)] += p * vj[c];
          }
        }
        affine(z.data(), w.wo, w.bo, d, att.data());
        for (std::int64_t c = 0; c < d; ++c) att[static_cast<std::size_t>(c)] += xi[c];
        layer_norm(att.data(), d, w.g1, w.be1);
        affine(att.data(), w.w1, w.b1, d, hid.data());
        for (double& hv : hid) hv = gelu(hv);
        double* o = &next[static_cast<std::size_t>(r * d)];
        affine(hid.data(), w.w2, w.b2, f, o);
        for (std::int64_t c = 0; c < d; ++c) o[c] += att[static_cast<std::size_t>(c)];
        layer_norm(o, d, w.g2, w.be2);
      }
    });
    cur.swap(next);
  }
  return cur;
}

double Reference::max_abs_error(const swat::MatrixF& x,
                                const swat::MatrixF& out,
                                std::int64_t edge) const {
  const std::int64_t n = x.rows();
  const std::int64_t d = cfg_.d_model;
  if (out.rows() != n || out.cols() != d) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  if (n <= 2 * edge) {
    ranges.emplace_back(0, n);
  } else {
    ranges.emplace_back(0, edge);
    ranges.emplace_back(n - edge, n);
  }
  double worst = 0.0;
  for (const auto& [r0, r1] : ranges) {
    const std::vector<double> ref = rows(x, r0, r1);
    for (std::int64_t i = r0; i < r1; ++i) {
      for (std::int64_t j = 0; j < d; ++j) {
        const double diff =
            std::abs(static_cast<double>(out(i, j)) -
                     ref[static_cast<std::size_t>((i - r0) * d + j)]);
        if (!(diff <= worst)) {
          worst = std::isnan(diff) ? std::numeric_limits<double>::infinity()
                                   : diff;
        }
      }
    }
  }
  return worst;
}

}  // namespace perfbench
