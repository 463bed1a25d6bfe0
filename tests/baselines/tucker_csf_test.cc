#include "baselines/tucker_csf.h"

#include <cmath>
#include <gtest/gtest.h>

#include "baselines/hooi.h"
#include "data/synthetic.h"
#include "linalg/qr.h"
#include "util/random.h"

namespace ptucker {
namespace {

HooiOptions SmallOptions() {
  HooiOptions options;
  options.core_dims = {3, 3, 3};
  options.max_iterations = 8;
  return options;
}

TEST(TuckerCsfValidationTest, RejectsBadInputs) {
  SparseTensor empty({4, 4});
  HooiOptions options;
  options.core_dims = {2, 2};
  EXPECT_THROW(TuckerCsfDecompose(empty, options), std::invalid_argument);

  Rng rng(1);
  SparseTensor x = UniformSparseTensor({4, 4}, 8, rng);
  options.core_dims = {0, 2};
  EXPECT_THROW(TuckerCsfDecompose(x, options), std::invalid_argument);
  options.core_dims = {2};
  EXPECT_THROW(TuckerCsfDecompose(x, options), std::invalid_argument);
  options.core_dims = {2, 2};
  options.max_iterations = 0;
  EXPECT_THROW(TuckerCsfDecompose(x, options), std::invalid_argument);
}

TEST(TuckerCsfTest, IdenticalToHooiSameSeed) {
  // CSF only changes how the TTMc is computed; with the same seed the
  // whole trajectory must match plain HOOI to numerical precision.
  Rng rng(1);
  SparseTensor x = UniformSparseTensor({12, 10, 8}, 250, rng);
  HooiOptions options = SmallOptions();
  PTuckerResult hooi = HooiDecompose(x, options);
  PTuckerResult csf = TuckerCsfDecompose(x, options);
  EXPECT_NEAR(hooi.final_error, csf.final_error,
              1e-8 * (1.0 + hooi.final_error));
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_TRUE(AllClose(hooi.model.factors[k], csf.model.factors[k], 1e-6));
  }
}

TEST(TuckerCsfTest, FactorsOrthonormal) {
  Rng rng(2);
  SparseTensor x = UniformSparseTensor({9, 9, 9}, 150, rng);
  PTuckerResult result = TuckerCsfDecompose(x, SmallOptions());
  for (const auto& factor : result.model.factors) {
    EXPECT_LT(OrthonormalityDefect(factor), 1e-8);
  }
}

TEST(TuckerCsfTest, HandlesOrderFour) {
  Rng rng(3);
  SparseTensor x = UniformSparseTensor({6, 6, 6, 6}, 120, rng);
  HooiOptions options;
  options.core_dims = {2, 2, 2, 2};
  options.max_iterations = 4;
  PTuckerResult result = TuckerCsfDecompose(x, options);
  EXPECT_TRUE(std::isfinite(result.final_error));
}

TEST(TuckerCsfTest, TracksYMaterialization) {
  Rng rng(4);
  SparseTensor x = UniformSparseTensor({100, 20, 20}, 200, rng);
  MemoryTracker tracker;
  HooiOptions options = SmallOptions();
  options.max_iterations = 1;
  options.tracker = &tracker;
  TuckerCsfDecompose(x, options);
  EXPECT_GE(tracker.peak_bytes(), 100 * 9 * 8);  // Y(0)
  EXPECT_EQ(tracker.current_bytes(), 0);
}

}  // namespace
}  // namespace ptucker
