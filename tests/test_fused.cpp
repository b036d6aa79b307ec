// Tests for the kernel-fused attention (paper Eq. 1) in all three variants.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "attention/fused.hpp"
#include "attention/window.hpp"
#include "common/fp16.hpp"
#include "test_util.hpp"

namespace swat::attn {
namespace {

TEST(FusedNaive, EqualsTwoPassWindowAttention) {
  // With 1/sqrt(d)-scaled logits the naive (no max subtraction) fusion is
  // numerically safe and must match the stable two-pass implementation.
  Rng rng(1);
  for (std::int64_t w : {2, 8, 24}) {
    const HeadInput in = random_head_input(96, 16, rng);
    swat::testing::expect_matrix_near(fused_window_attention(in, w),
                                      window_attention(in, w), 5e-5f,
                                      "fused vs two-pass");
  }
}

TEST(FusedOnline, EqualsTwoPassEvenWithLargeScores) {
  // The online (running max) variant survives score magnitudes that break
  // the naive fusion in float.
  Rng rng(2);
  HeadInput in = random_head_input(32, 8, rng);
  for (float& v : in.q.flat()) v *= 60.0f;  // scores ~ O(100)
  swat::testing::expect_matrix_near(fused_window_attention_online(in, 8),
                                    window_attention(in, 8), 1e-4f,
                                    "online vs two-pass");
}

bool all_finite(const MatrixF& m) {
  for (const float x : m.flat()) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

TEST(FusedBatchRowGuard, OutOfRangeScoresMatchTheOnlineKernel) {
  // A standard-normal input at 6x scale puts the scaled logits at O(100):
  // Eq. 1's unshifted exp leaves float range on many rows. The batch
  // kernel's row guard must recompute exactly those rows in the online
  // (running-max) form, at both stream precisions.
  const std::int64_t heads = 2, h = 64, d_model = heads * h, radius = 16;
  const std::vector<std::int64_t> offsets = {0, 150, 220};
  const std::int64_t rows = offsets.back();
  Rng rng(31);
  const MatrixF q = random_normal(rows, d_model, rng, 6.0);
  const MatrixF k = random_normal(rows, d_model, rng, 6.0);
  const MatrixF v = random_normal(rows, d_model, rng, 6.0);
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  const auto round = [](float x, Dtype dt) {
    return dt == Dtype::kFp16 ? Half(x).to_float() : x;
  };
  for (const Dtype dt : {Dtype::kFp32, Dtype::kFp16}) {
    MatrixF out(rows, d_model);
    fused_window_attention_batch_into(q, k, v, offsets, heads, radius, radius,
                                      scale, out, dt);
    MatrixF out_1t(rows, d_model);
    {
      swat::testing::ThreadCountGuard one(1);
      fused_window_attention_batch_into(q, k, v, offsets, heads, radius,
                                        radius, scale, out_1t, dt);
    }
    swat::testing::expect_matrix_equal(out_1t, out, "guard across threads");
    bool eq1_breaks = false;
    for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
      const std::int64_t row0 = offsets[s];
      const std::int64_t n = offsets[s + 1] - row0;
      for (std::int64_t head = 0; head < heads; ++head) {
        // The head slice as the kernel sees it: scale folded into Q with
        // one rounding, K/V at the stream precision.
        HeadInput in;
        in.q = MatrixF(n, h);
        in.k = MatrixF(n, h);
        in.v = MatrixF(n, h);
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t d = 0; d < h; ++d) {
            in.q(i, d) = q(row0 + i, head * h + d) * scale;
            in.k(i, d) = round(k(row0 + i, head * h + d), dt);
            in.v(i, d) = round(v(row0 + i, head * h + d), dt);
          }
        }
        const MatrixF want = fused_window_attention_online(in, radius);
        MatrixF got(n, h);
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t d = 0; d < h; ++d) {
            got(i, d) = out(row0 + i, head * h + d);
          }
        }
        ASSERT_TRUE(all_finite(got));
        // fp16 streams may contract to FMA and use a <= 4 ulp vector exp;
        // at O(100) logits that moves outputs by ~1e-4 (measured 8e-5).
        swat::testing::expect_matrix_near(
            got, want, dt == Dtype::kFp16 ? 1e-3f : 1e-4f,
            "guarded batch vs online");
        try {
          eq1_breaks =
              eq1_breaks || !all_finite(fused_window_attention(in, radius));
        } catch (const std::logic_error&) {
          eq1_breaks = true;
        }
      }
    }
    // The input really is out of Eq. 1's range, so the guard ran.
    EXPECT_TRUE(eq1_breaks);
  }
}

TEST(FusedNaive, DenominatorFactorsOut) {
  // Eq. 1's core claim: postponing the division is exact in real
  // arithmetic. Verify on one row computed by hand.
  HeadInput in;
  in.q = MatrixF(1, 2);
  in.k = MatrixF(1, 2);
  in.v = MatrixF(1, 2);
  in.q(0, 0) = 0.5f;
  in.q(0, 1) = -0.25f;
  in.k(0, 0) = 1.0f;
  in.k(0, 1) = 2.0f;
  in.v(0, 0) = 3.0f;
  in.v(0, 1) = -1.0f;
  const MatrixF z = fused_window_attention(in, 1);
  // Single attended token -> softmax weight is exactly 1.
  EXPECT_NEAR(z(0, 0), 3.0f, 1e-6f);
  EXPECT_NEAR(z(0, 1), -1.0f, 1e-6f);
}

TEST(FusedFp16, MatchesFp32OracleWithinHalfPrecision) {
  Rng rng(3);
  for (std::int64_t n : {64, 128}) {
    const HeadInput in = random_head_input(n, 16, rng);
    const MatrixF fp16 = fused_window_attention_fp16(in, 8);
    const MatrixF oracle = band_attention(in, 8, 7);
    // fp16 has ~3 decimal digits; the banded softmax keeps values O(1).
    swat::testing::expect_matrix_near(fp16, oracle, 0.03f,
                                      "fp16 kernel vs fp32 band oracle");
  }
}

TEST(FusedFp16, OutputsAreRepresentableInFp16) {
  Rng rng(4);
  const HeadInput in = random_head_input(64, 8, rng);
  const MatrixF z = fused_window_attention_fp16(in, 4);
  for (float v : z.flat()) {
    EXPECT_EQ(v, Half(v).to_float()) << "value not fp16-representable";
  }
}

TEST(FusedFp16, DeterministicAcrossCalls) {
  Rng rng(5);
  const HeadInput in = random_head_input(48, 8, rng);
  swat::testing::expect_matrix_equal(fused_window_attention_fp16(in, 6),
                                     fused_window_attention_fp16(in, 6));
}

TEST(FusedFp16, WiderAccumulatorIsAtLeastAsAccurate) {
  Rng rng(6);
  const HeadInput in = random_head_input(128, 32, rng);
  const MatrixF oracle = band_attention(in, 16, 15);
  Fp16KernelOptions narrow;
  narrow.fp16_accumulate = true;
  Fp16KernelOptions wide;
  wide.fp16_accumulate = false;
  const float err_narrow =
      max_abs_diff(fused_window_attention_fp16(in, 16, narrow), oracle);
  const float err_wide =
      max_abs_diff(fused_window_attention_fp16(in, 16, wide), oracle);
  EXPECT_LE(err_wide, err_narrow * 1.5f + 1e-4f);
}

TEST(FusedFp16, ExpLutDegradesGracefully) {
  Rng rng(7);
  const HeadInput in = random_head_input(96, 16, rng);
  const MatrixF exact = fused_window_attention_fp16(in, 8);
  Fp16KernelOptions lut_small;
  lut_small.exp_lut_segments = 16;
  Fp16KernelOptions lut_large;
  lut_large.exp_lut_segments = 512;
  const float err_small =
      max_abs_diff(fused_window_attention_fp16(in, 8, lut_small), exact);
  const float err_large =
      max_abs_diff(fused_window_attention_fp16(in, 8, lut_large), exact);
  EXPECT_LT(err_large, err_small + 1e-6f);
  EXPECT_LT(err_large, 0.01f);
}

TEST(FusedFp16, RequiresPositiveRadius) {
  Rng rng(8);
  const HeadInput in = random_head_input(16, 4, rng);
  EXPECT_THROW(fused_window_attention_fp16(in, 0), std::invalid_argument);
}

}  // namespace
}  // namespace swat::attn
