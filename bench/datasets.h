#ifndef PTUCKER_BENCH_DATASETS_H_
#define PTUCKER_BENCH_DATASETS_H_

// Simulated stand-ins for the paper's four real-world tensors (Table IV).
// The originals (Yahoo-music 252M nnz, MovieLens 20M nnz, sea-wave video,
// Lena image) are not available offline; these generators keep the order,
// the mode-dimensionality ratios, the popularity skew and the low-rank
// structure at laptop scale (docs/benchmarks.md); each generator's comment
// gives its scale factors.

#include <string>
#include <vector>

#include "data/lowrank.h"
#include "data/movielens_sim.h"
#include "data/synthetic.h"
#include "tensor/sparse_tensor.h"
#include "util/random.h"

namespace ptucker::bench {

struct Dataset {
  std::string name;
  SparseTensor tensor;
  std::vector<std::int64_t> ranks;
};

// Yahoo-music-like: 4-way (user, music, year-month, hour). Paper:
// (1M, 625K, 133, 24), 252M nnz, rank 10 -> scaled (2000, 1250, 133, 24),
// 60K nnz, rank 4.
inline Dataset YahooMusicLike() {
  Rng rng(0xA11CE);
  PlantedTucker model =
      RandomTuckerModel({2000, 1250, 133, 24}, {4, 4, 4, 4}, rng);
  Dataset d;
  d.name = "Yahoo-music(sim)";
  d.tensor = SampleFromModel(model, 60000, 0.05, rng);
  d.ranks = {4, 4, 4, 4};
  return d;
}

// MovieLens-like: 4-way (user, movie, year, hour). Paper: (138K, 27K, 21,
// 24), 20M nnz, rank 10 -> scaled (1380, 270, 21, 24), 20K nnz, rank 4.
inline Dataset MovieLensLike() {
  MovieLensConfig config;
  config.num_users = 1380;
  config.num_movies = 270;
  config.num_years = 21;
  config.num_hours = 24;
  config.nnz = 20000;
  config.seed = 0xB0B;
  Dataset d;
  d.name = "MovieLens(sim)";
  d.tensor = SimulateMovieLens(config).tensor;
  d.ranks = {4, 4, 4, 4};
  return d;
}

// Sea-wave-video-like: 4-way (height, width, channel, frame) at the
// paper's own scale (112, 160, 3, 32), 16K nnz (10% sample), rank 3.
inline Dataset VideoLike() {
  Rng rng(0x51DE0);
  PlantedTucker model =
      RandomTuckerModel({112, 160, 3, 32}, {3, 3, 3, 3}, rng);
  Dataset d;
  d.name = "Video(sim)";
  d.tensor = SampleFromModel(model, 16000, 0.02, rng);
  d.ranks = {3, 3, 3, 3};
  return d;
}

// Lena-image-like: 3-way (256, 256, 3) at the paper's own scale, 20K nnz
// (10% sample), rank 3.
inline Dataset ImageLike() {
  Rng rng(0x1E4A);
  PlantedTucker model = RandomTuckerModel({256, 256, 3}, {3, 3, 3}, rng);
  Dataset d;
  d.name = "Image(sim)";
  d.tensor = SampleFromModel(model, 20000, 0.02, rng);
  d.ranks = {3, 3, 3};
  return d;
}

inline std::vector<Dataset> AllRealWorldLike() {
  std::vector<Dataset> all;
  all.push_back(YahooMusicLike());
  all.push_back(MovieLensLike());
  all.push_back(VideoLike());
  all.push_back(ImageLike());
  return all;
}

}  // namespace ptucker::bench

#endif  // PTUCKER_BENCH_DATASETS_H_
