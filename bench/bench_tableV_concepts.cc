// Table V: concept discovery — k-means on the movie factor matrix of a
// fitted P-Tucker model, scored against planted genres. The paper prints
// three recovered movie concepts (Thriller/Comedy/Drama); here the
// simulator's genres play that role and purity quantifies the recovery.
#include "analytics/discovery.h"
#include "bench/bench_common.h"
#include "data/movielens_sim.h"

int main() {
  using namespace ptucker;
  using namespace ptucker::bench;

  MovieLensConfig config;
  config.num_users = 400;
  config.num_movies = 120;
  config.num_years = 8;
  config.num_hours = 24;
  config.num_genres = 3;
  config.nnz = 20000;
  config.noise_stddev = 0.02;
  MovieLensData data = SimulateMovieLens(config);

  PrintHeader("Table V: concept discovery on the movie factor matrix",
              "MovieLens-like, J=(6,6,4,4), k-means k=3 over movie rows");

  PTuckerOptions options;
  options.core_dims = {6, 6, 4, 4};
  options.max_iterations = 12;
  MethodOutcome fit = RunMethod(PTuckerDecompose, data.tensor, options);

  auto concepts = DiscoverConcepts(fit.model, /*movie mode=*/1,
                                   config.num_genres);
  std::vector<std::int64_t> assignments(
      static_cast<std::size_t>(config.num_movies), -1);
  TablePrinter table({"concept", "size", "majority planted genre",
                      "representative movies (planted genre)"});
  for (const auto& found : concepts) {
    std::vector<std::int64_t> votes(
        static_cast<std::size_t>(config.num_genres), 0);
    for (std::int64_t member : found.members) {
      assignments[static_cast<std::size_t>(member)] = found.cluster_id;
      ++votes[static_cast<std::size_t>(
          data.movie_genre[static_cast<std::size_t>(member)])];
    }
    const std::int64_t majority =
        std::max_element(votes.begin(), votes.end()) - votes.begin();
    std::string sample;
    for (std::size_t m = 0; m < 4 && m < found.members.size(); ++m) {
      const std::int64_t movie = found.members[m];
      sample += "m" + std::to_string(movie) + "(g" +
                std::to_string(
                    data.movie_genre[static_cast<std::size_t>(movie)]) +
                ") ";
    }
    table.AddRow({"C" + std::to_string(found.cluster_id + 1),
                  std::to_string(found.members.size()),
                  "genre " + std::to_string(majority), sample});
  }
  table.Print();
  std::printf("\ncluster purity vs planted genres: %.3f (chance ~ %.3f)\n",
              ClusterPurity(assignments, data.movie_genre),
              1.0 / static_cast<double>(config.num_genres));
  return 0;
}
