#include "serve/service.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include <omp.h>

#include "core/reconstruction.h"

namespace ptucker {

namespace {

// Total order on candidates: higher score first, ties broken by the
// smaller mode coordinate. Because the order is total, the top-k set and
// its ordering are unique — TopK's result cannot depend on thread count.
bool Better(const ScoredIndex& a, const ScoredIndex& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

void ValidateQueryIndex(const ModelSnapshot& snapshot,
                        const std::int64_t* index, std::int64_t skip_mode) {
  for (std::int64_t n = 0; n < snapshot.order(); ++n) {
    if (n == skip_mode) continue;
    if (index[n] < 0 || index[n] >= snapshot.dim(n)) {
      throw std::invalid_argument(
          "serve: query coordinate " + std::to_string(index[n]) +
          " out of bounds for mode " + std::to_string(n) + " (dim " +
          std::to_string(snapshot.dim(n)) + ")");
    }
  }
}

// Ranks the IVF clusters of `ivf` by centroid · δ(mode, index) — the
// predicted score of each cluster's "average row" — and returns the
// member ids of the best `nprobe` lists, in ranked-cluster order with
// ids ascending inside each list. Member ids are range-checked here
// (deferred from load time so opening a snapshot stays O(1) in I_n).
std::vector<std::int32_t> ProbeIvf(const ModelSnapshot& snap,
                                   const IvfModeView& ivf, std::int64_t mode,
                                   const std::int64_t* index,
                                   std::int64_t nprobe) {
  const std::int64_t clusters = ivf.k;
  const std::int64_t probe =
      nprobe == 0 ? std::max<std::int64_t>(1, (clusters + 9) / 10)
                  : std::min(nprobe, clusters);
  const std::int64_t rank = ivf.centroids.cols();
  std::vector<double> delta(static_cast<std::size_t>(rank));
  snap.engine().ComputeDelta(-1, index, mode, delta.data());

  // Total order (score desc, cluster id asc) keeps the probed candidate
  // list — and therefore the whole approximate TopK — deterministic.
  std::vector<ScoredIndex> ranked(static_cast<std::size_t>(clusters));
  for (std::int64_t c = 0; c < clusters; ++c) {
    const double* centroid = ivf.centroids.Row(c);
    double score = 0.0;
    for (std::int64_t j = 0; j < rank; ++j) score += centroid[j] * delta[j];
    ranked[static_cast<std::size_t>(c)] = ScoredIndex{c, score};
  }
  std::sort(ranked.begin(), ranked.end(), Better);

  const std::int64_t dim = snap.dim(mode);
  std::vector<std::int32_t> out;
  for (std::int64_t p = 0; p < probe; ++p) {
    const std::size_t c =
        static_cast<std::size_t>(ranked[static_cast<std::size_t>(p)].index);
    const std::int64_t begin = ivf.offsets[c];
    const std::int64_t end = ivf.offsets[c + 1];
    out.reserve(out.size() + static_cast<std::size_t>(end - begin));
    for (std::int64_t m = begin; m < end; ++m) {
      const std::int32_t id = ivf.ids[static_cast<std::size_t>(m)];
      if (id < 0 || static_cast<std::int64_t>(id) >= dim) {
        throw std::runtime_error(
            "serve: snapshot IVF member id " + std::to_string(id) +
            " out of range for mode " + std::to_string(mode) + " (dim " +
            std::to_string(dim) + ") — snapshot is corrupt");
      }
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace

std::shared_ptr<const ModelSnapshot> ModelSnapshot::Create(
    TuckerFactorization model, MemoryTracker* tracker) {
  const std::int64_t order = model.core.order();
  if (order < 1) {
    throw std::invalid_argument("serve: model has no modes");
  }
  if (static_cast<std::int64_t>(model.factors.size()) != order) {
    throw std::invalid_argument(
        "serve: factor count does not match core order");
  }
  for (std::int64_t n = 0; n < order; ++n) {
    const Matrix& factor = model.factors[static_cast<std::size_t>(n)];
    if (factor.rows() < 1 || factor.cols() != model.core.dim(n)) {
      throw std::invalid_argument(
          "serve: factor " + std::to_string(n) +
          " shape does not match the core rank");
    }
  }
  // Two-phase construction: the engine keeps references into the
  // snapshot's core list and views into its factors, so both must
  // already live at their final heap address before the engine is built.
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  snapshot->model_ = std::move(model);
  snapshot->factor_views_ = MakeFactorViews(snapshot->model_.factors);
  snapshot->core_list_ = CoreEntryList(snapshot->model_.core);
  snapshot->engine_ = std::make_unique<ModeMajorDeltaEngine>(
      snapshot->core_list_, snapshot->factor_views_, tracker);
  return snapshot;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::CreateFromFile(
    const std::string& path, std::int64_t tile_width, MemoryTracker* tracker,
    bool verify_payload) {
  if (tile_width < 1) {
    throw std::invalid_argument("serve: tile_width must be >= 1");
  }
  // The zero-copy path: the engine's factor views point straight into
  // the mapping pinned by file_, and only the (VeST-compact) core list
  // is copied out of it.
  std::shared_ptr<ModelSnapshot> snapshot(new ModelSnapshot());
  snapshot->file_ = MmapSnapshot::Open(path, verify_payload);
  const MmapSnapshot& file = *snapshot->file_;
  snapshot->factor_views_ = file.factors();
  snapshot->core_list_ =
      CoreEntryList(file.order(), file.core_indices(), file.core_values());
  snapshot->engine_ = std::make_unique<ModeMajorDeltaEngine>(
      snapshot->core_list_, snapshot->factor_views_, tracker);
  return snapshot;
}

PredictionService::PredictionService(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("serve: snapshot must be non-null");
  }
  snapshot_ = std::move(snapshot);
}

void PredictionService::ReloadSnapshot(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  if (snapshot == nullptr) {
    throw std::invalid_argument("serve: snapshot must be non-null");
  }
  std::atomic_store(&snapshot_, std::move(snapshot));
}

std::shared_ptr<const ModelSnapshot> PredictionService::snapshot() const {
  return std::atomic_load(&snapshot_);
}

double PredictionService::Predict(
    const std::vector<std::int64_t>& index) const {
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  if (static_cast<std::int64_t>(index.size()) != snap->order()) {
    throw std::invalid_argument("serve: query order does not match model");
  }
  ValidateQueryIndex(*snap, index.data(), -1);
  return snap->engine().Reconstruct(index.data());
}

void PredictionService::PredictBatch(std::int64_t count,
                                     const std::int64_t* const* indices,
                                     double* out) const {
  if (count < 0) throw std::invalid_argument("serve: count must be >= 0");
  if (count == 0) return;
  // One atomic snapshot grab for the whole batch: a concurrent reload
  // can never mix two models inside one PredictBatch call.
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  PredictBatchOn(*snap, count, indices, out);
}

void PredictionService::PredictBatchOn(const ModelSnapshot& snap,
                                       std::int64_t count,
                                       const std::int64_t* const* indices,
                                       double* out) {
  for (std::int64_t e = 0; e < count; ++e) {
    ValidateQueryIndex(snap, indices[e], -1);
  }
  // The parallel kernel lives in core/reconstruction.cc; serving
  // adds only the snapshot grab and coordinate validation.
  PredictEntries(count, indices, snap.engine(), out);
}

std::vector<double> PredictionService::PredictBatch(
    const SparseTensor& queries) const {
  // Grab the snapshot once and hand it straight to the shared kernel —
  // re-loading inside would let a concurrent reload swap in a model of
  // a different order after this order check passed.
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  if (queries.order() != snap->order()) {
    throw std::invalid_argument("serve: query order does not match model");
  }
  std::vector<const std::int64_t*> indices(
      static_cast<std::size_t>(queries.nnz()));
  for (std::int64_t e = 0; e < queries.nnz(); ++e) {
    indices[static_cast<std::size_t>(e)] = queries.index(e);
  }
  std::vector<double> out(indices.size());
  PredictBatchOn(*snap, queries.nnz(), indices.data(), out.data());
  return out;
}

std::vector<ScoredIndex> PredictionService::TopK(
    std::int64_t mode, const std::vector<std::int64_t>& index, std::int64_t k,
    const std::vector<char>* exclude, std::int64_t nprobe) const {
  const std::shared_ptr<const ModelSnapshot> snap = snapshot();
  const std::int64_t order = snap->order();
  if (mode < 0 || mode >= order) {
    throw std::invalid_argument("serve: top-K mode out of range");
  }
  if (static_cast<std::int64_t>(index.size()) != order) {
    throw std::invalid_argument("serve: query order does not match model");
  }
  if (k < 1) throw std::invalid_argument("serve: k must be >= 1");
  ValidateQueryIndex(*snap, index.data(), mode);
  const std::int64_t candidates = snap->dim(mode);
  if (exclude != nullptr &&
      static_cast<std::int64_t>(exclude->size()) != candidates) {
    throw std::invalid_argument(
        "serve: exclude must hold dim(mode) flags");
  }

  // Candidate enumeration: ids == nullptr scans the identity range
  // [0, candidates) — the exact path; otherwise only the IVF-probed ids
  // are scored. Both run through the same bounded-heap scan below.
  std::vector<std::int32_t> probed;
  const std::int32_t* ids = nullptr;
  std::int64_t count = candidates;
  if (nprobe >= 0) {
    const IvfModeView* ivf = snap->ivf(mode);
    if (ivf == nullptr) {
      throw std::invalid_argument(
          "serve: top-K nprobe requires an IVF section for mode " +
          std::to_string(mode) +
          " (write the snapshot with centroids: ptucker_cli convert-model)");
    }
    probed = ProbeIvf(*snap, *ivf, mode, index.data(), nprobe);
    ids = probed.data();
    count = static_cast<std::int64_t>(probed.size());
  }

  const DeltaEngine& engine = snap->engine();
  // Per-thread bounded heaps merged in thread order — the top-K analogue
  // of the deterministic-sum discipline (util/parallel.h): each thread's
  // k best over its static contiguous range, then one sequential merge.
  std::vector<std::vector<ScoredIndex>> per_thread(
      static_cast<std::size_t>(omp_get_max_threads()));
#pragma omp parallel
  {
    // A max-heap under Better keeps the *worst* retained candidate on
    // top, so a better newcomer replaces it in O(log k).
    std::vector<ScoredIndex> heap;
    heap.reserve(static_cast<std::size_t>(std::min(k, candidates)));
    std::vector<std::int64_t> coords = index;
#pragma omp for schedule(static)
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int64_t candidate =
          ids == nullptr ? i
                         : static_cast<std::int64_t>(
                               ids[static_cast<std::size_t>(i)]);
      if (exclude != nullptr &&
          (*exclude)[static_cast<std::size_t>(candidate)] != 0) {
        continue;
      }
      coords[static_cast<std::size_t>(mode)] = candidate;
      const ScoredIndex scored{candidate, engine.Reconstruct(coords.data())};
      if (static_cast<std::int64_t>(heap.size()) < k) {
        heap.push_back(scored);
        std::push_heap(heap.begin(), heap.end(), Better);
        continue;
      }
      if (!Better(scored, heap.front())) continue;
      std::pop_heap(heap.begin(), heap.end(), Better);
      heap.back() = scored;
      std::push_heap(heap.begin(), heap.end(), Better);
    }
    per_thread[static_cast<std::size_t>(omp_get_thread_num())] =
        std::move(heap);
  }

  std::vector<ScoredIndex> merged;
  for (const auto& local : per_thread) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end(), Better);
  if (static_cast<std::int64_t>(merged.size()) > k) {
    merged.resize(static_cast<std::size_t>(k));
  }
  return merged;
}

}  // namespace ptucker
