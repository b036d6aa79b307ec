#include "attention/fused.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"

#if defined(__F16C__)
#include <immintrin.h>
#endif

#if defined(SWAT_HAVE_MVEC) && defined(__AVX512F__)
// glibc libmvec's 16-lane expf (<= 4 ulp): the fp16 streamed path's exp
// stage, which is free of the fp32 path's oracle-bit-parity pin.
extern "C" __m512 _ZGVeN16v_expf(__m512 x);
#elif defined(SWAT_HAVE_MVEC) && defined(__AVX2__)
extern "C" __m256 _ZGVdN8v_expf(__m256 x);
#endif

namespace swat::attn {

namespace {

#if defined(__F16C__)
// Inline scalar widen for the <8-lane loop tails: one vcvtph2ps, same bits
// as the batch converter (exact widening), no out-of-line call per element.
inline float f16_tail_to_f32(std::uint16_t bits) { return _cvtsh_ss(bits); }
#endif

// Row guard shared by both batch workers. Eq. 1's unshifted exp overflows
// for scores above ~88.7 (an infinite denominator, or an infinite S'V sum)
// and underflows to 0 when a whole band scores below ~-103 (0/0 in the
// output). The fast path checks each finished row for exactly those
// outcomes and recomputes only such a row (its scores rebuilt from the K
// tile) in fused_window_attention_online's running-max form, which is
// finite over float's whole range. Every other row keeps its Eq. 1 bits.
struct OnlineRow {
  float running_max = -std::numeric_limits<float>::infinity();
  float denom = 0.0f;
};

/// One step of the online (running-max) softmax update, shared by
/// fused_window_attention_online and the row guard: score s, V row vr,
/// output accumulator za (h lanes). When s raises the running max, the
/// accumulation so far is rescaled to it. Pinned like the fp32 worker.
SWAT_NO_FP_CONTRACT
void online_step(OnlineRow& row, float s, const float* vr, float* za,
                 std::int64_t h) {
  SWAT_NO_FP_CONTRACT_BODY
  if (s > row.running_max) {
    const float rescale =
        (row.denom == 0.0f) ? 0.0f : std::exp(row.running_max - s);
    row.denom *= rescale;
    for (std::int64_t d = 0; d < h; ++d) za[d] *= rescale;
    row.running_max = s;
  }
  const float e = std::exp(s - row.running_max);
  row.denom += e;
  for (std::int64_t d = 0; d < h; ++d) za[d] += e * vr[d];
}

/// True when a finished Eq. 1 row must be recomputed by the guard: its
/// denominator overflowed, or an output lane is inf/NaN. The lane test ORs
/// (exponent field + one exponent ulp) across the row, which carries into
/// bit 31 only for an all-ones exponent; it is integer-only, so it
/// vectorizes where a float compare reduction would not.
bool row_needs_guard(float denom, const float* z, std::int64_t h) {
  std::uint32_t carry = 0;
  for (std::int64_t d = 0; d < h; ++d) {
    carry |= (std::bit_cast<std::uint32_t>(z[d]) & 0x7f800000u) + 0x00800000u;
  }
  return std::isinf(denom) || (carry & 0x80000000u) != 0;
}

// Defined below; the serial workers the batch entry point fans out.
SWAT_NO_FP_CONTRACT
void fused_window_tasks(ConstMatrixView q, ConstMatrixView k,
                        ConstMatrixView v,
                        std::span<const std::int64_t> offsets,
                        std::int64_t num_heads, std::int64_t window_before,
                        std::int64_t window_after, float scale, MatrixView out,
                        std::int64_t t0, std::int64_t t1);

void fused_window_tasks_f16(ConstMatrixView q, ConstMatrixView k,
                            ConstMatrixView v,
                            std::span<const std::int64_t> offsets,
                            std::int64_t num_heads, std::int64_t window_before,
                            std::int64_t window_after, float scale,
                            MatrixView out, std::int64_t t0, std::int64_t t1);

}  // namespace

void fused_window_attention_batch_into(ConstMatrixView q, ConstMatrixView k,
                                       ConstMatrixView v,
                                       std::span<const std::int64_t> offsets,
                                       std::int64_t num_heads,
                                       std::int64_t window_before,
                                       std::int64_t window_after, float scale,
                                       MatrixView out, Dtype stream_dtype) {
  SWAT_EXPECTS(stream_dtype == Dtype::kFp32 || stream_dtype == Dtype::kFp16);
  SWAT_EXPECTS(num_heads >= 1);
  SWAT_EXPECTS(window_before >= 0 && window_after >= 0);
  const std::int64_t rows = q.rows();
  const std::int64_t d_model = q.cols();
  SWAT_EXPECTS(d_model % num_heads == 0);
  SWAT_EXPECTS(k.rows() == rows && k.cols() == d_model);
  SWAT_EXPECTS(v.rows() == rows && v.cols() == d_model);
  SWAT_EXPECTS(out.rows() == rows && out.cols() == d_model);
  SWAT_EXPECTS(offsets.size() >= 2);
  SWAT_EXPECTS(offsets.front() == 0 && offsets.back() == rows);
  const std::int64_t nseq = static_cast<std::int64_t>(offsets.size()) - 1;
  for (std::int64_t s = 0; s < nseq; ++s) {
    SWAT_EXPECTS(offsets[static_cast<std::size_t>(s)] <
                 offsets[static_cast<std::size_t>(s + 1)]);
  }

  // (sequence, head) tasks fan out over the pool; rows within a task run
  // serially in index order, so every output element's reduction order is
  // fixed regardless of the partition.
  parallel_for(0, nseq * num_heads, 1, [&](std::int64_t t0, std::int64_t t1) {
    if (stream_dtype == Dtype::kFp16) {
      fused_window_tasks_f16(q, k, v, offsets, num_heads, window_before,
                             window_after, scale, out, t0, t1);
    } else {
      fused_window_tasks(q, k, v, offsets, num_heads, window_before,
                         window_after, scale, out, t0, t1);
    }
  });
}

std::int64_t fused_window_kv_stream_bytes(std::int64_t seq_len,
                                          std::int64_t num_heads,
                                          std::int64_t head_dim,
                                          std::int64_t window_before,
                                          std::int64_t window_after,
                                          Dtype stream_dtype) {
  SWAT_EXPECTS(seq_len >= 1 && num_heads >= 1 && head_dim >= 1);
  SWAT_EXPECTS(window_before >= 0 && window_after >= 0);
  // sum_i (hi_i - lo_i + 1) with hi = min(n-1, i+wa), lo = max(0, i-wb),
  // in closed form: n + sum min(n-1, i+wa) - sum max(0, i-wb).
  const std::int64_t n = seq_len;
  const std::int64_t unclipped_hi = std::max<std::int64_t>(0, n - window_after);
  const std::int64_t sum_hi = unclipped_hi * window_after +
                              unclipped_hi * (unclipped_hi - 1) / 2 +
                              (n - unclipped_hi) * (n - 1);
  const std::int64_t past_lo = n - 1 - window_before;
  const std::int64_t sum_lo = past_lo > 0 ? past_lo * (past_lo + 1) / 2 : 0;
  const std::int64_t band_sum = n + sum_hi - sum_lo;
  // Each band element is read from both the K tile and the V band.
  return 2 * num_heads * head_dim * band_sum *
         static_cast<std::int64_t>(dtype_bytes(stream_dtype));
}

namespace {

/// Score stage of the fp32 worker for one query row: sb[c] = sum_d qs[d] *
/// ktc[d * tk + c] for c < count, where ktc points at the row's first band
/// column in the transposed K tile. d-major, so each score column keeps
/// dot()'s exact ascending-d order while the c loop vectorizes.
SWAT_NO_FP_CONTRACT
inline void f32_scores(const float* qs, const float* ktc, std::int64_t tk,
                       std::int64_t count, std::int64_t h,
                       float* __restrict sb) {
  SWAT_NO_FP_CONTRACT_BODY
  std::fill(sb, sb + count, 0.0f);
  for (std::int64_t d = 0; d < h; ++d) {
    const float qd = qs[d];
    const float* const __restrict ktd = ktc + d * tk;
    for (std::int64_t c = 0; c < count; ++c) sb[c] += qd * ktd[c];
  }
}

/// The fp32 worker's row guard (see OnlineRow) for one query row: rebuild
/// the raw scores, run the online form over the band (V row c at v0 + c *
/// vstride) and overwrite zrow. Out of line so the hot row loop stays
/// compact.
[[gnu::noinline]] SWAT_NO_FP_CONTRACT void f32_guard_row(
    const float* qs, const float* ktc, std::int64_t tk, std::int64_t count,
    std::int64_t h, const float* v0, std::int64_t vstride, float* sb,
    float* za, float* zrow) {
  SWAT_NO_FP_CONTRACT_BODY
  f32_scores(qs, ktc, tk, count, h, sb);
  OnlineRow row;
  std::fill(za, za + h, 0.0f);
  for (std::int64_t c = 0; c < count; ++c) {
    online_step(row, sb[c], v0 + c * vstride, za, h);
  }
  SWAT_ENSURES(row.denom > 0.0f);
  for (std::int64_t d = 0; d < h; ++d) zrow[d] = za[d] / row.denom;
}

// Query rows are processed in tiles: for each tile the K head slice its
// band can touch (tile rows + window reach, independent of the sequence
// length) is transposed once into per-thread scratch, so the score stage
// streams K^T unit-stride and vectorizes across score columns while each
// score element keeps dot()'s exact ascending-d reduction order. The
// transpose is O(h) per tile row and amortizes over the whole tile.
// SWAT_NO_FP_CONTRACT pins the multiply-then-add rounding of the score
// and S'V loops to dot()/axpy()'s, so outputs are bit-identical to the
// per-head kernel on every ISA.
SWAT_NO_FP_CONTRACT
void fused_window_tasks(ConstMatrixView q, ConstMatrixView k,
                        ConstMatrixView v,
                        std::span<const std::int64_t> offsets,
                        std::int64_t num_heads, std::int64_t window_before,
                        std::int64_t window_after, float scale, MatrixView out,
                        std::int64_t t0, std::int64_t t1) {
  SWAT_NO_FP_CONTRACT_BODY
  const std::int64_t h = q.cols() / num_heads;
  constexpr std::int64_t kQueryTile = 64;
  {
    // The only per-thread scratch, leased from the thread's Workspace
    // arena (steady state is allocation-free): one scaled query row, one
    // row's score band, one transposed K tile, one output-row accumulator
    // — O(window x head_dim), never (rows x window).
    const std::int64_t band = window_before + window_after + 1;
    const std::int64_t tile_cols = kQueryTile + band - 1;
    WorkspaceLease qs_lease(tls_workspace(), static_cast<std::size_t>(h));
    WorkspaceLease s_lease(tls_workspace(), static_cast<std::size_t>(band));
    WorkspaceLease kt_lease(tls_workspace(),
                            static_cast<std::size_t>(tile_cols * h));
    WorkspaceLease z_lease(tls_workspace(), static_cast<std::size_t>(h));
    float* const qs = qs_lease.data();
    float* const sp = s_lease.data();
    float* const kt = kt_lease.data();
    float* const zacc = z_lease.data();
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t s = t / num_heads;
      const std::int64_t base = (t % num_heads) * h;
      const std::int64_t row0 = offsets[static_cast<std::size_t>(s)];
      const std::int64_t n = offsets[static_cast<std::size_t>(s + 1)] - row0;
      for (std::int64_t i0 = 0; i0 < n; i0 += kQueryTile) {
        const std::int64_t i1 = std::min(i0 + kQueryTile, n);
        // K columns any row of this tile can attend: [tk0, tk1].
        const std::int64_t tk0 = std::max<std::int64_t>(0, i0 - window_before);
        const std::int64_t tk1 =
            std::min<std::int64_t>(n - 1, i1 - 1 + window_after);
        const std::int64_t tk = tk1 - tk0 + 1;
        // kt[d * tk + (j - tk0)] = K[row0 + j][base + d]: the transposed
        // tile the score loops stream unit-stride.
        for (std::int64_t j = tk0; j <= tk1; ++j) {
          const float* krow = k.row(row0 + j).data() + base;
          for (std::int64_t d = 0; d < h; ++d) {
            kt[d * tk + (j - tk0)] = krow[d];
          }
        }
        for (std::int64_t i = i0; i < i1; ++i) {
          const float* qrow = q.row(row0 + i).data() + base;
          for (std::int64_t d = 0; d < h; ++d) qs[d] = qrow[d] * scale;
          const std::int64_t lo =
              std::max<std::int64_t>(0, i - window_before);
          const std::int64_t hi =
              std::min<std::int64_t>(n - 1, i + window_after);
          const std::int64_t count = hi - lo + 1;
          // Exactly Eq. 1's operation order per element — QK dot, exp
          // with no max subtraction, S'V accumulation, one deferred
          // division — scheduled as one pass per stage over the row's
          // score band so each tight loop pipelines. Element-wise the
          // arithmetic and its order match fused_window_attention exactly
          // (d and j ascending everywhere), so per-head outputs are
          // bit-identical to the per-head kernel.
          float* const __restrict sb = sp;
          f32_scores(qs, kt + (lo - tk0), tk, count, h, sb);
          float denom = 0.0f;
          for (std::int64_t c = 0; c < count; ++c) {
            sb[c] = std::exp(sb[c]);
            denom += sb[c];
          }
          float* const __restrict za = zacc;
          std::fill(za, za + h, 0.0f);
          for (std::int64_t c = 0; c < count; ++c) {
            const float* const __restrict vr =
                v.row(row0 + lo + c).data() + base;
            const float e = sb[c];
            for (std::int64_t d = 0; d < h; ++d) za[d] += e * vr[d];
          }
          float* const zrow = out.row(row0 + i).data() + base;
          for (std::int64_t d = 0; d < h; ++d) zrow[d] = za[d] / denom;
          if (row_needs_guard(denom, zrow, h)) [[unlikely]] {
            f32_guard_row(qs, kt + (lo - tk0), tk, count, h,
                          v.row(row0 + lo).data() + base, v.stride(), sb, za,
                          zrow);
          }
        }
      }
    }
  }
}

#if defined(__F16C__)
using TileElem = std::uint16_t;  // fp16 K/V tile bits, widened in-register
#else
using TileElem = float;  // the K/V tiles' fp32 twins
#endif

/// Score stage of the fp16 worker for one query row: sb[c] = sum_d qs[d] *
/// ktc[d * tk + c] for c < count, where ktc points at the row's first band
/// column in the transposed K tile. Each score column sums its d terms in
/// ascending order (lanes never split one element's reduction).
inline void f16_scores(const float* qs, const TileElem* ktc, std::int64_t tk,
                       std::int64_t count, std::int64_t h,
                       float* __restrict sb) {
  std::fill(sb, sb + count, 0.0f);
  for (std::int64_t d = 0; d < h; ++d) {
    const float qd = qs[d];
#if defined(__F16C__)
    const std::uint16_t* const __restrict ktd = ktc + d * tk;
    std::int64_t c = 0;
#if defined(__AVX512F__)
    // 32 fp16 bytes feed a full 64-byte zmm FMA — the halved stream
    // doubles the lanes one load port cycle can supply.
    const __m512 qd16 = _mm512_set1_ps(qd);
    for (; c + 16 <= count; c += 16) {
      const __m512 kw = _mm512_cvtph_ps(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ktd + c)));
      _mm512_storeu_ps(sb + c,
                       _mm512_fmadd_ps(qd16, kw, _mm512_loadu_ps(sb + c)));
    }
#endif
    const __m256 qd8 = _mm256_set1_ps(qd);
    for (; c + 8 <= count; c += 8) {
      const __m256 kw = _mm256_cvtph_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(ktd + c)));
      _mm256_storeu_ps(sb + c,
                       _mm256_fmadd_ps(qd8, kw, _mm256_loadu_ps(sb + c)));
    }
    for (; c < count; ++c) sb[c] += qd * f16_tail_to_f32(ktd[c]);
#else
    const float* const __restrict ktd = ktc + d * tk;
    for (std::int64_t c = 0; c < count; ++c) sb[c] += qd * ktd[c];
#endif
  }
}

/// The fp16 worker's row guard (see OnlineRow) for one query row: rebuild
/// the raw scores, run the online form over the row-layout V band (row c
/// at vb + c * h) and overwrite zrow. The scaled query row in qs is dead
/// once the scores are in, so on F16C hosts its scratch holds each
/// widened V row. Out of line so the hot row loop stays compact.
[[gnu::noinline]] void f16_guard_row(float* qs, const TileElem* ktc,
                                     std::int64_t tk, std::int64_t count,
                                     std::int64_t h, const TileElem* vb,
                                     float* sb, float* za, float* zrow) {
  f16_scores(qs, ktc, tk, count, h, sb);
  OnlineRow row;
  std::fill(za, za + h, 0.0f);
  for (std::int64_t c = 0; c < count; ++c) {
#if defined(__F16C__)
    f16_bits_to_f32_batch(vb + c * h, qs, static_cast<std::size_t>(h));
    online_step(row, sb[c], qs, za, h);
#else
    online_step(row, sb[c], vb + c * h, za, h);
#endif
  }
  SWAT_ENSURES(row.denom > 0.0f);
  for (std::int64_t d = 0; d < h; ++d) zrow[d] = za[d] / row.denom;
}

// fp16 streamed-tile twin of fused_window_tasks. The transposed K tile and
// the row-major V band are narrowed to binary16 once per (sequence, head,
// tile) with the RNE SIMD converter, so the score and S'V stages stream 2
// bytes per K/V element instead of 4. On F16C hosts the hot loops widen
// lanes in-register (vcvtph2ps feeding the FMA directly — the streamed
// bytes really halve); elsewhere the fp16 tiles are widened once per tile
// into fp32 twins, amortizing the scalar conversion over every query row
// that reuses the tile. Scores, the exp/denominator pass and the Z
// accumulator stay fp32 with the same per-element ascending reduction
// order as the fp32 worker (scores ascend d, Z ascends c), so outputs are
// bit-identical across thread counts, arrival orders, replica counts and
// batch compositions. Unlike the fp32 worker this one carries no
// SWAT_NO_FP_CONTRACT pin: the tile rounding already broke oracle
// bit-parity, so contraction is allowed (like gemm_packed's fp16 tile) and
// accuracy is budgeted by eval/stream_fidelity instead.
void fused_window_tasks_f16(ConstMatrixView q, ConstMatrixView k,
                            ConstMatrixView v,
                            std::span<const std::int64_t> offsets,
                            std::int64_t num_heads, std::int64_t window_before,
                            std::int64_t window_after, float scale,
                            MatrixView out, std::int64_t t0, std::int64_t t1) {
  const std::int64_t h = q.cols() / num_heads;
  constexpr std::int64_t kQueryTile = 64;
  {
    // Same O(window x head_dim) scratch shape as the fp32 worker plus the
    // two fp16 tiles (and, off-F16C, their fp32 twins); u16 storage leases
    // ceil(n/2) floats from the same thread-local arena, so the path stays
    // allocation-free after warmup.
    const std::int64_t band = window_before + window_after + 1;
    const std::int64_t tile_cols = kQueryTile + band - 1;
    const auto u16_floats = [](std::int64_t n) {
      return static_cast<std::size_t>((n + 1) / 2);
    };
    WorkspaceLease qs_lease(tls_workspace(), static_cast<std::size_t>(h));
    WorkspaceLease s_lease(tls_workspace(), static_cast<std::size_t>(band));
    WorkspaceLease z_lease(tls_workspace(), static_cast<std::size_t>(h));
    WorkspaceLease row16_lease(tls_workspace(), u16_floats(h));
    WorkspaceLease kt16_lease(tls_workspace(), u16_floats(tile_cols * h));
    WorkspaceLease vb16_lease(tls_workspace(), u16_floats(tile_cols * h));
    float* const qs = qs_lease.data();
    float* const sp = s_lease.data();
    float* const zacc = z_lease.data();
    auto* const row16 = reinterpret_cast<std::uint16_t*>(row16_lease.data());
    auto* const kt16 = reinterpret_cast<std::uint16_t*>(kt16_lease.data());
    auto* const vb16 = reinterpret_cast<std::uint16_t*>(vb16_lease.data());
#if !defined(__F16C__)
    WorkspaceLease kt32_lease(tls_workspace(),
                              static_cast<std::size_t>(tile_cols * h));
    WorkspaceLease vb32_lease(tls_workspace(),
                              static_cast<std::size_t>(tile_cols * h));
    float* const kt32 = kt32_lease.data();
    float* const vb32 = vb32_lease.data();
    const TileElem* const ktile = kt32;
    const TileElem* const vband = vb32;
#else
    const TileElem* const ktile = kt16;
    const TileElem* const vband = vb16;
#endif
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t s = t / num_heads;
      const std::int64_t base = (t % num_heads) * h;
      const std::int64_t row0 = offsets[static_cast<std::size_t>(s)];
      const std::int64_t n = offsets[static_cast<std::size_t>(s + 1)] - row0;
      for (std::int64_t i0 = 0; i0 < n; i0 += kQueryTile) {
        const std::int64_t i1 = std::min(i0 + kQueryTile, n);
        const std::int64_t tk0 = std::max<std::int64_t>(0, i0 - window_before);
        const std::int64_t tk1 =
            std::min<std::int64_t>(n - 1, i1 - 1 + window_after);
        const std::int64_t tk = tk1 - tk0 + 1;
        // kt16[d * tk + (j - tk0)] = fp16(K[row0 + j][base + d]): each K
        // head row is narrowed contiguously (one SIMD batch convert) then
        // scattered into the transposed tile. The V band keeps the row
        // layout S'V consumes (vb16[(j - tk0) * h + d]), so it narrows
        // straight into place with no scatter.
        for (std::int64_t j = tk0; j <= tk1; ++j) {
          f32_to_f16_bits_batch(k.row(row0 + j).data() + base, row16,
                                static_cast<std::size_t>(h));
          for (std::int64_t d = 0; d < h; ++d) {
            kt16[d * tk + (j - tk0)] = row16[d];
          }
          f32_to_f16_bits_batch(v.row(row0 + j).data() + base,
                                vb16 + (j - tk0) * h,
                                static_cast<std::size_t>(h));
        }
#if !defined(__F16C__)
        // No in-register widen on this host: round-trip the whole tile to
        // fp32 once (two contiguous batch converts, amortized over all
        // kQueryTile rows) and let the hot loops below run pure fp32.
        f16_bits_to_f32_batch(kt16, kt32, static_cast<std::size_t>(tk * h));
        f16_bits_to_f32_batch(vb16, vb32, static_cast<std::size_t>(tk * h));
#endif
        for (std::int64_t i = i0; i < i1; ++i) {
          const float* qrow = q.row(row0 + i).data() + base;
          for (std::int64_t d = 0; d < h; ++d) qs[d] = qrow[d] * scale;
          const std::int64_t lo =
              std::max<std::int64_t>(0, i - window_before);
          const std::int64_t hi =
              std::min<std::int64_t>(n - 1, i + window_after);
          const std::int64_t count = hi - lo + 1;
          const std::int64_t loff = lo - tk0;
          // Score stage: d-major over the K tile; every score column
          // accumulates its d-sum in ascending order (lanes never split a
          // single element's reduction), exactly like the fp32 worker.
          float* const __restrict sb = sp;
          f16_scores(qs, ktile + loff, tk, count, h, sb);
          // Exp pass: the fp16 stream trades oracle bit-parity for speed
          // under the fidelity budget, so it may use libmvec's vectorized
          // expf (<= 4 ulp — orders of magnitude inside the binary16
          // budget) where the fp32 worker pins scalar std::exp. The
          // denominator still sums in a separate ascending pass, so its
          // reduction order never depends on the lane width.
          {
            std::int64_t c = 0;
#if defined(SWAT_HAVE_MVEC) && defined(__AVX512F__)
            for (; c + 16 <= count; c += 16) {
              _mm512_storeu_ps(sb + c,
                               _ZGVeN16v_expf(_mm512_loadu_ps(sb + c)));
            }
#elif defined(SWAT_HAVE_MVEC) && defined(__AVX2__)
            for (; c + 8 <= count; c += 8) {
              _mm256_storeu_ps(sb + c,
                               _ZGVdN8v_expf(_mm256_loadu_ps(sb + c)));
            }
#endif
            for (; c < count; ++c) sb[c] = std::exp(sb[c]);
          }
          float denom = 0.0f;
          for (std::int64_t c = 0; c < count; ++c) denom += sb[c];
          // S'V stage: c-major axpy over the row-layout V band — za[d]
          // sums its band in the fp32 worker's ascending-c order, just
          // from half-precision rows.
          float* const __restrict za = zacc;
          std::fill(za, za + h, 0.0f);
          for (std::int64_t c = 0; c < count; ++c) {
            const float e = sb[c];
#if defined(__F16C__)
            const std::uint16_t* const __restrict vr =
                vb16 + (loff + c) * h;
            std::int64_t d = 0;
#if defined(__AVX512F__)
            const __m512 e16 = _mm512_set1_ps(e);
            for (; d + 16 <= h; d += 16) {
              const __m512 vw = _mm512_cvtph_ps(_mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(vr + d)));
              _mm512_storeu_ps(
                  za + d,
                  _mm512_fmadd_ps(e16, vw, _mm512_loadu_ps(za + d)));
            }
#endif
            const __m256 e8 = _mm256_set1_ps(e);
            for (; d + 8 <= h; d += 8) {
              const __m256 vw = _mm256_cvtph_ps(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(vr + d)));
              _mm256_storeu_ps(
                  za + d,
                  _mm256_fmadd_ps(e8, vw, _mm256_loadu_ps(za + d)));
            }
            for (; d < h; ++d) za[d] += e * f16_tail_to_f32(vr[d]);
#else
            const float* const __restrict vr = vb32 + (loff + c) * h;
            for (std::int64_t d = 0; d < h; ++d) za[d] += e * vr[d];
#endif
          }
          float* const zrow = out.row(row0 + i).data() + base;
          for (std::int64_t d = 0; d < h; ++d) zrow[d] = za[d] / denom;
          if (row_needs_guard(denom, zrow, h)) [[unlikely]] {
            f16_guard_row(qs, ktile + loff, tk, count, h, vband + loff * h, sb,
                          za, zrow);
          }
        }
      }
    }
  }
}

}  // namespace

MatrixF fused_window_attention(const HeadInput& in,
                               std::int64_t window_radius) {
  SWAT_EXPECTS(window_radius >= 0);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  MatrixF z(n, h, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + window_radius);
    float denom = 0.0f;
    auto zrow = z.row(i);
    // One pass: numerator accumulates exp(S) * V, denominator accumulates
    // exp(S). Exactly Eq. 1 — note no max subtraction.
    for (std::int64_t j = lo; j <= hi; ++j) {
      const float e = std::exp(dot(in.q.row(i), in.k.row(j)));
      denom += e;
      axpy(e, in.v.row(j), zrow);
    }
    SWAT_ENSURES(denom > 0.0f);
    for (float& v : zrow) v /= denom;
  }
  return z;
}

MatrixF fused_window_attention_online(const HeadInput& in,
                                      std::int64_t window_radius) {
  SWAT_EXPECTS(window_radius >= 0);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  MatrixF z(n, h, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi = std::min<std::int64_t>(n - 1, i + window_radius);
    OnlineRow row;
    auto zrow = z.row(i);
    for (std::int64_t j = lo; j <= hi; ++j) {
      online_step(row, dot(in.q.row(i), in.k.row(j)), in.v.row(j).data(),
                  zrow.data(), h);
    }
    SWAT_ENSURES(row.denom > 0.0f);
    for (float& v : zrow) v /= row.denom;
  }
  return z;
}

namespace {

Half exp_unit(Half x, const Fp16KernelOptions& opt) {
  return opt.exp_lut_segments > 0 ? half_exp_lut(x, opt.exp_lut_segments)
                                  : half_exp(x);
}

/// fp16 dot product with per-step rounding (non-fused MAC, as the HLS
/// pipeline rounds after the multiplier and after the adder).
Half dot_fp16(std::span<const Half> a, std::span<const Half> b,
              const Fp16KernelOptions& opt) {
  SWAT_EXPECTS(a.size() == b.size());
  if (opt.fp16_accumulate) {
    Half acc = Half::zero();
    for (std::size_t d = 0; d < a.size(); ++d) {
      acc = acc + a[d] * b[d];
    }
    return acc;
  }
  float acc = 0.0f;
  for (std::size_t d = 0; d < a.size(); ++d) {
    acc += (a[d] * b[d]).to_float();  // product still rounds to fp16
  }
  return Half(acc);
}

}  // namespace

MatrixF fused_window_attention_fp16(const HeadInput& in,
                                    std::int64_t window_radius,
                                    const Fp16KernelOptions& opt) {
  SWAT_EXPECTS(window_radius >= 1);
  const std::int64_t n = in.seq_len();
  const std::int64_t h = in.head_dim();
  const std::int64_t num_cores = 2 * window_radius;

  // Round the operand tensors once (they are stored in HBM as fp16).
  const auto to_half_matrix = [](const MatrixF& m) {
    Matrix<Half> out(m.rows(), m.cols());
    for (std::int64_t r = 0; r < m.rows(); ++r)
      for (std::int64_t c = 0; c < m.cols(); ++c)
        out(r, c) = Half(m(r, c));
    return out;
  };
  const Matrix<Half> q = to_half_matrix(in.q);
  const Matrix<Half> k = to_half_matrix(in.k);
  const Matrix<Half> v = to_half_matrix(in.v);

  MatrixF z(n, h, 0.0f);
  // Per-core slices for one query row, indexed by *physical core* (j mod
  // num_cores) — the reduction trees sum in physical-core order, which is
  // what makes this function bit-compatible with the attention-core
  // functional simulator.
  std::vector<std::vector<Half>> zslice(
      static_cast<std::size_t>(num_cores),
      std::vector<Half>(static_cast<std::size_t>(h), Half::zero()));
  std::vector<Half> sprime(static_cast<std::size_t>(num_cores), Half::zero());
  std::vector<bool> valid(static_cast<std::size_t>(num_cores), false);

  for (std::int64_t i = 0; i < n; ++i) {
    // SWAT's band: [i - w, i + w - 1], exactly 2w tokens interior.
    const std::int64_t lo = std::max<std::int64_t>(0, i - window_radius);
    const std::int64_t hi =
        std::min<std::int64_t>(n - 1, i + window_radius - 1);
    std::fill(valid.begin(), valid.end(), false);

    for (std::int64_t j = lo; j <= hi; ++j) {
      const auto core = static_cast<std::size_t>(j % num_cores);
      SWAT_ENSURES(!valid[core]);
      // QK stage: local dot product.
      const Half s = dot_fp16(q.row(i), k.row(j), opt);
      // SV stage: exp then scale the V row.
      const Half e = exp_unit(s, opt);
      sprime[core] = e;
      for (std::int64_t d = 0; d < h; ++d) {
        zslice[core][static_cast<std::size_t>(d)] = e * v(j, d);
      }
      valid[core] = true;
    }

    // Z reduction + row sum, grouped by head-dim-sized blocks of physical
    // cores (ZRED1/ROWSUM1 accumulate sequentially within each group of H
    // cores, ZRED2/ROWSUM2 combine the group partials in order).
    const std::int64_t group = h;
    std::vector<Half> znum(static_cast<std::size_t>(h), Half::zero());
    Half denom = Half::zero();
    for (std::int64_t gbase = 0; gbase < num_cores; gbase += group) {
      std::vector<Half> gz(static_cast<std::size_t>(h), Half::zero());
      Half gsum = Half::zero();
      const std::int64_t gend = std::min(gbase + group, num_cores);
      for (std::int64_t c = gbase; c < gend; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        if (!valid[ci]) continue;
        gsum = gsum + sprime[ci];
        for (std::int64_t d = 0; d < h; ++d) {
          const auto di = static_cast<std::size_t>(d);
          gz[di] = gz[di] + zslice[ci][di];
        }
      }
      denom = denom + gsum;
      for (std::int64_t d = 0; d < h; ++d) {
        const auto di = static_cast<std::size_t>(d);
        znum[di] = znum[di] + gz[di];
      }
    }

    // DIV & OUT stage.
    SWAT_ENSURES(denom.to_float() > 0.0f);
    auto zrow = z.row(i);
    for (std::int64_t d = 0; d < h; ++d) {
      zrow[static_cast<std::size_t>(d)] =
          (znum[static_cast<std::size_t>(d)] / denom).to_float();
    }
  }
  return z;
}

}  // namespace swat::attn
