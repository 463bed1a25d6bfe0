#include "core/core_update.h"

#include <cmath>

#include "util/logging.h"
#include "util/parallel.h"

namespace ptucker {

namespace {

double VecDot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

void DesignLanePartials(const SparseTensor& x, const CoreEntryList& core_list,
                        const std::vector<Matrix>& factors,
                        bool residual_from_x, const std::vector<double>& input,
                        std::int64_t lane_begin, std::int64_t lane_end,
                        double* lane_sums) {
  const std::int64_t order = core_list.order();
  const std::int64_t n_core = core_list.size();
  PTUCKER_CHECK(static_cast<std::int64_t>(factors.size()) == order);
  PTUCKER_CHECK(static_cast<std::int64_t>(input.size()) == n_core);
  // One design row per entry: each P(α, β) is computed once, into
  // `design`, as the running product from 1.0 in ascending mode order,
  // then read twice — y = Σ_b input[b]·P(α, β) in list order, and
  // local[b] += y·P(α, β).
  DeterministicParallelVectorLaneSums(
      x.nnz(), input.size(), lane_begin, lane_end, lane_sums, [&] {
        return [&, rows = std::vector<const double*>(
                       static_cast<std::size_t>(order)),
                design = std::vector<double>(static_cast<std::size_t>(
                    n_core))](std::int64_t e, double* local) mutable {
          const std::int64_t* index = x.index(e);
          for (std::int64_t k = 0; k < order; ++k) {
            rows[static_cast<std::size_t>(k)] =
                factors[static_cast<std::size_t>(k)].Row(index[k]);
          }
          const double* const* row = rows.data();
          double* p = design.data();
          double y = 0.0;
          for (std::int64_t b = 0; b < n_core; ++b) {
            const std::int32_t* beta = core_list.index(b);
            double product = 1.0;
            for (std::int64_t k = 0; k < order; ++k) {
              product *= row[k][beta[k]];
            }
            p[b] = product;
            y += input[static_cast<std::size_t>(b)] * product;
          }
          if (residual_from_x) y = x.value(e) - y;
          if (y == 0.0) return;
          for (std::int64_t b = 0; b < n_core; ++b) local[b] += y * p[b];
        };
      });
}

std::vector<double> RunCoreCg(const DesignLaneFill& fill_lanes, double lambda,
                              int cg_iterations, DenseTensor* core,
                              CoreEntryList* core_list) {
  PTUCKER_CHECK(core != nullptr && core_list != nullptr);
  // Warm start from the current core values: CG then monotonically
  // improves the regularized objective.
  std::vector<double> g(static_cast<std::size_t>(core_list->size()));
  for (std::int64_t b = 0; b < core_list->size(); ++b) {
    g[static_cast<std::size_t>(b)] = core_list->value(b);
  }
  const std::size_t core_count = g.size();
  if (core_count == 0 || cg_iterations <= 0) return g;

  // z = the design product of `input`, folded from its lanes in lane order.
  std::vector<double> lane_sums(
      static_cast<std::size_t>(kReductionLanes) * core_count);
  const auto product = [&](bool residual_from_x,
                           const std::vector<double>& input,
                           std::vector<double>* z) {
    fill_lanes(residual_from_x, input, lane_sums.data());
    z->resize(core_count);
    FoldVectorLaneSums(lane_sums.data(), kReductionLanes, core_count,
                       z->data());
  };

  // r = Pᵀ(x − P g) − λ g  (negative gradient of the objective / 2).
  std::vector<double> residual;
  product(/*residual_from_x=*/true, g, &residual);
  for (std::size_t b = 0; b < core_count; ++b) {
    residual[b] -= lambda * g[b];
  }

  std::vector<double> direction = residual;
  std::vector<double> q;
  double rho = VecDot(residual, residual);
  const double threshold = std::max(rho * 1e-16, 1e-28);

  for (int step = 0; step < cg_iterations && rho > threshold; ++step) {
    // q = (PᵀP + λI) d.
    product(/*residual_from_x=*/false, direction, &q);
    for (std::size_t b = 0; b < core_count; ++b) {
      q[b] += lambda * direction[b];
    }
    const double curvature = VecDot(direction, q);
    if (curvature <= 0.0) break;
    const double alpha = rho / curvature;
    for (std::size_t b = 0; b < core_count; ++b) {
      g[b] += alpha * direction[b];
      residual[b] -= alpha * q[b];
    }
    const double rho_next = VecDot(residual, residual);
    const double beta = rho_next / rho;
    rho = rho_next;
    for (std::size_t b = 0; b < core_count; ++b) {
      direction[b] = residual[b] + beta * direction[b];
    }
  }
  StoreCoreValues(g, core, core_list);
  return g;
}

void StoreCoreValues(const std::vector<double>& g, DenseTensor* core,
                     CoreEntryList* core_list) {
  PTUCKER_CHECK(core != nullptr && core_list != nullptr);
  PTUCKER_CHECK(static_cast<std::int64_t>(g.size()) == core_list->size());
  std::vector<std::int64_t> index(static_cast<std::size_t>(core->order()));
  for (std::int64_t b = 0; b < core_list->size(); ++b) {
    const std::int32_t* beta = core_list->index(b);
    for (std::int64_t k = 0; k < core->order(); ++k) {
      index[static_cast<std::size_t>(k)] = beta[k];
    }
    core->at(index.data()) = g[static_cast<std::size_t>(b)];
  }
  core_list->RefreshValues(*core);
}

void UpdateCoreTensor(const SparseTensor& x, DenseTensor* core,
                      CoreEntryList* core_list,
                      const std::vector<Matrix>& factors, double lambda,
                      int cg_iterations) {
  PTUCKER_CHECK(core != nullptr && core_list != nullptr);
  RunCoreCg(
      [&](bool residual_from_x, const std::vector<double>& input,
          double* lane_sums) {
        DesignLanePartials(x, *core_list, factors, residual_from_x, input, 0,
                           kReductionLanes, lane_sums);
      },
      lambda, cg_iterations, core, core_list);
}

}  // namespace ptucker
