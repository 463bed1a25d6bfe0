// Table VI: relation discovery — the top entries of the fitted core
// tensor G link columns across modes; mapped back through the factor
// matrices they expose (genre-concept, hour) affinities. The simulator
// plants 2 boosted hours per genre; this bench reports how many of the
// top recovered relation-hours are planted ones.
#include <set>

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

  PrintHeader("Table VI: relation discovery from the core tensor",
              "MovieLens-like, top-3 core entries; hour mode = 3");

  PTuckerOptions options;
  options.core_dims = {5, 5, 4, 5};
  options.max_iterations = 12;
  MethodOutcome fit = RunMethod(PTuckerDecompose, data.tensor, options);

  // Planted ground truth: hours with a positive genre boost.
  std::set<std::int64_t> planted_hours;
  for (std::int64_t g = 0; g < config.num_genres; ++g) {
    for (std::int64_t h = 0; h < config.num_hours; ++h) {
      if (data.genre_hour_boost[static_cast<std::size_t>(
              g * config.num_hours + h)] > 0.0) {
        planted_hours.insert(h);
      }
    }
  }

  auto relations = DiscoverRelations(fit.model, 3);
  TablePrinter table({"relation", "|G| value", "top hours (planted?)"});
  std::int64_t hits = 0, totals = 0;
  for (std::size_t r = 0; r < relations.size(); ++r) {
    const auto& relation = relations[r];
    std::string hours_cell;
    for (std::int64_t hour :
         TopEntitiesForRelation(fit.model, relation, /*hour mode=*/3, 3)) {
      const bool planted = planted_hours.count(hour) != 0;
      hits += planted ? 1 : 0;
      ++totals;
      hours_cell += std::to_string(hour) + (planted ? "*(y) " : "(n) ");
    }
    table.AddRow({"R" + std::to_string(r + 1),
                  FormatDouble(relation.strength, 3), hours_cell});
  }
  table.Print();
  std::printf("\nplanted hours: %zu of 24; recovered relation-hours that "
              "are planted: %lld/%lld\n",
              planted_hours.size(), static_cast<long long>(hits),
              static_cast<long long>(totals));
  return 0;
}
