// Movie recommendation on a simulated MovieLens-style tensor
// (user, movie, year, hour; rating) — the paper's motivating workload,
// run the way a production backend would: train P-Tucker, persist the
// model as a binary snapshot (serve/snapshot_v2.h), map it back into a
// PredictionService (serve/service.h), and answer every query —
// held-out RMSE and top-K recommendations — through the serving layer
// instead of re-factorizing.
//
//   $ ./movie_recommendation
//
// Trains on 90% of the ratings, reports test RMSE against the held-out
// 10% (the Fig. 11 metric) for P-Tucker vs the zero-imputing HOOI
// baseline, then serves top-5 recommendations for one user.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "baselines/hooi.h"
#include "core/ptucker.h"
#include "core/reconstruction.h"
#include "data/movielens_sim.h"
#include "data/split.h"
#include "serve/service.h"
#include "serve/snapshot_v2.h"
#include "util/random.h"

int main() {
  using namespace ptucker;

  // Simulated MovieLens: planted genres + Zipf popularity (see
  // data/movielens_sim.h for what is planted and why).
  MovieLensConfig config;
  config.num_users = 400;
  config.num_movies = 150;
  config.num_years = 10;
  config.num_hours = 24;
  config.nnz = 25000;
  MovieLensData data = SimulateMovieLens(config);
  std::printf("simulated MovieLens tensor: %lld users x %lld movies x "
              "%lld years x %lld hours, %lld ratings\n",
              static_cast<long long>(config.num_users),
              static_cast<long long>(config.num_movies),
              static_cast<long long>(config.num_years),
              static_cast<long long>(config.num_hours),
              static_cast<long long>(data.tensor.nnz()));

  // 90/10 split, as in the paper (§IV-A1).
  Rng rng(7);
  auto split = SplitObservedEntries(data.tensor, 0.1, rng);

  // --- Train. ---
  PTuckerOptions options;
  options.core_dims = {8, 8, 4, 6};
  options.max_iterations = 12;
  PTuckerResult ptucker = PTuckerDecompose(split.train, options);

  // --- Snapshot: persist the fitted model, then map it back — what a
  // trainer hands to a serving fleet. The round trip is bit-identical.
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "movie_model.ptks").string();
  SaveSnapshotV2(snapshot_path, ptucker.model, /*with_centroids=*/false);
  std::shared_ptr<const ModelSnapshot> snapshot =
      ModelSnapshot::CreateFromFile(snapshot_path);
  std::printf("\nmodel checkpointed to %s and mapped back (core nnz %lld)\n",
              snapshot_path.c_str(),
              static_cast<long long>(snapshot->core_nnz()));

  // --- Serve: every query below goes through the snapshot's engine,
  // not the trainer's in-memory model.
  PredictionService service(std::move(snapshot));

  // Held-out RMSE through the serving path (same metric as TestRmse).
  const std::vector<double> predictions = service.PredictBatch(split.test);
  double squared = 0.0;
  for (std::int64_t e = 0; e < split.test.nnz(); ++e) {
    const double residual =
        split.test.value(e) - predictions[static_cast<std::size_t>(e)];
    squared += residual * residual;
  }
  const double ptucker_rmse =
      std::sqrt(squared / static_cast<double>(split.test.nnz()));

  HooiOptions hooi_options;
  hooi_options.core_dims = options.core_dims;
  hooi_options.max_iterations = 12;
  PTuckerResult hooi = HooiDecompose(split.train, hooi_options);
  const double hooi_rmse =
      TestRmse(split.test, hooi.model.core, hooi.model.factors);

  std::printf("\ntest RMSE  (lower is better)\n");
  std::printf("  P-Tucker (served) : %.4f\n", ptucker_rmse);
  std::printf("  HOOI              : %.4f   (misses because it treats "
              "missing ratings as zeros)\n", hooi_rmse);

  // Recommend: unseen movies with the highest predicted rating for one
  // user at (latest year, 9pm) — a single TopK call with the user's
  // already-rated movies excluded.
  const std::int64_t user = 3;
  const std::int64_t year = config.num_years - 1;
  const std::int64_t hour = 21;
  std::vector<char> seen(static_cast<std::size_t>(config.num_movies), 0);
  for (std::int64_t e = 0; e < split.train.nnz(); ++e) {
    if (split.train.index(e, 0) == user) {
      seen[static_cast<std::size_t>(split.train.index(e, 1))] = 1;
    }
  }
  const std::vector<std::int64_t> at = {user, 0, year, hour};
  const std::vector<ScoredIndex> top =
      service.TopK(/*mode=*/1, at, /*k=*/5, &seen);

  std::printf("\ntop-5 recommendations for user %lld at (year %lld, %lld:00)"
              " [planted user genre: %lld]\n",
              static_cast<long long>(user), static_cast<long long>(year),
              static_cast<long long>(hour),
              static_cast<long long>(
                  data.user_genre[static_cast<std::size_t>(user)]));
  for (const ScoredIndex& rec : top) {
    std::printf("  movie %3lld  predicted %.3f  (genre %lld)\n",
                static_cast<long long>(rec.index), rec.score,
                static_cast<long long>(
                    data.movie_genre[static_cast<std::size_t>(rec.index)]));
  }
  std::filesystem::remove(snapshot_path);
  return 0;
}
