// Tensor completion of a synthetic RGB image — the paper's 'Lena'
// experiment shape: a (height, width, channel) tensor with 90% of pixels
// missing, completed by P-Tucker vs the zero-imputing HOOI.
//
//   $ ./image_completion
//
// The "image" is a smooth synthetic gradient + blob pattern (the real
// Lena image is not distributable offline), which has the same low
// multilinear rank structure that makes completion work.
#include <cmath>
#include <cstdio>

#include "baselines/hooi.h"
#include "baselines/tucker_wopt.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "util/random.h"

namespace {

// Smooth synthetic image: sum of separable gradients and a Gaussian blob
// per channel -> approximately low Tucker rank.
double PixelValue(std::int64_t row, std::int64_t col, std::int64_t channel,
                  std::int64_t height, std::int64_t width) {
  const double y = static_cast<double>(row) / static_cast<double>(height);
  const double x = static_cast<double>(col) / static_cast<double>(width);
  const double phase = 0.7 + 0.4 * static_cast<double>(channel);
  double value = 0.35 * (1.0 + std::sin(3.0 * x * phase)) / 2.0 +
                 0.35 * (1.0 + std::cos(2.0 * y + phase)) / 2.0;
  const double dx = x - 0.5, dy = y - 0.4;
  value += 0.3 * std::exp(-(dx * dx + dy * dy) / 0.05);
  return std::min(1.0, std::max(0.0, value));
}

}  // namespace

int main() {
  using namespace ptucker;

  const std::int64_t height = 96, width = 96, channels = 3;
  const double observed_fraction = 0.10;  // paper: 10%-sampled image

  Rng rng(11);
  SparseTensor train({height, width, channels});
  SparseTensor test({height, width, channels});
  for (std::int64_t r = 0; r < height; ++r) {
    for (std::int64_t c = 0; c < width; ++c) {
      for (std::int64_t ch = 0; ch < channels; ++ch) {
        const std::int64_t index[3] = {r, c, ch};
        const double value = PixelValue(r, c, ch, height, width);
        if (rng.Uniform() < observed_fraction) {
          train.AddEntry(index, value);
        } else if (rng.Uniform() < 0.05) {
          test.AddEntry(index, value);  // sample of the missing pixels
        }
      }
    }
  }
  train.BuildModeIndex();
  std::printf("image tensor %lldx%lldx%lld: %lld observed pixels (%.0f%%), "
              "%lld held-out pixels\n",
              static_cast<long long>(height), static_cast<long long>(width),
              static_cast<long long>(channels),
              static_cast<long long>(train.nnz()),
              100.0 * observed_fraction,
              static_cast<long long>(test.nnz()));

  PTuckerOptions options;
  options.core_dims = {3, 3, 3};  // paper uses rank 3 for image/video
  options.max_iterations = 15;
  PTuckerResult ptucker = PTuckerDecompose(train, options);

  HooiOptions hooi_options;
  hooi_options.core_dims = {3, 3, 3};
  hooi_options.max_iterations = 15;
  PTuckerResult hooi = HooiDecompose(train, hooi_options);

  HooiOptions wopt_options;
  wopt_options.core_dims = {3, 3, 3};
  wopt_options.max_iterations = 25;
  PTuckerResult wopt = TuckerWoptDecompose(train, wopt_options);

  std::printf("\ncompletion RMSE on missing pixels (lower is better)\n");
  std::printf("  P-Tucker    : %.4f\n",
              TestRmse(test, ptucker.model.core, ptucker.model.factors));
  std::printf("  Tucker-wOpt : %.4f\n",
              TestRmse(test, wopt.model.core, wopt.model.factors));
  std::printf("  HOOI        : %.4f   (zero-imputing)\n",
              TestRmse(test, hooi.model.core, hooi.model.factors));

  // Show a strip of reconstructed vs true pixel values.
  std::printf("\nsample reconstructions (row 48, channel 0):\n");
  std::printf("  col   true   P-Tucker  HOOI\n");
  for (std::int64_t c = 8; c < 96; c += 16) {
    const std::int64_t index[3] = {48, c, 0};
    std::printf("  %3lld   %.3f  %.3f     %.3f\n", static_cast<long long>(c),
                PixelValue(48, c, 0, height, width),
                ptucker.model.Predict(index), hooi.model.Predict(index));
  }
  return 0;
}
