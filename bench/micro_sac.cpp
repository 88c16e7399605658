// Microbenchmarks of the SAC array system: with-loop engine dispatch,
// array-library operations, reductions, copy-on-write machinery.

#include <benchmark/benchmark.h>

#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/sac/sac.hpp"

namespace {

using namespace sacpp;
using sac::Array;

Array<double> grid2(extent_t n) {
  return sac::with_genarray<double>(Shape{n, n}, [n](const IndexVec& iv) {
    return static_cast<double>(iv[0] * n + iv[1]);
  });
}

Array<double> grid3(extent_t n) {
  return sac::with_genarray<double>(
      cube_shape(3, n), sac::rank3_body([](extent_t i, extent_t j, extent_t k) {
        return static_cast<double>(i + j + k);
      }));
}

void BM_GenarrayRank3Body(benchmark::State& state) {
  const extent_t n = state.range(0);
  for (auto _ : state) {
    auto a = sac::with_genarray<double>(
        cube_shape(3, n),
        sac::rank3_body([](extent_t i, extent_t j, extent_t k) {
          return static_cast<double>(i * j - k);
        }));
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_GenarrayIndexVectorBody(benchmark::State& state) {
  const extent_t n = state.range(0);
  for (auto _ : state) {
    auto a = sac::with_genarray<double>(
        cube_shape(3, n), [](const IndexVec& iv) {
          return static_cast<double>(iv[0] * iv[1] - iv[2]);
        });
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_ModarrayInterior(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto base = grid3(n);
  for (auto _ : state) {
    auto a = sac::with_modarray(
        base, sac::gen_interior(base.shape()),
        sac::rank3_body(
            [](extent_t i, extent_t j, extent_t k) {
              return static_cast<double>(i + j * k);
            }));
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_FoldSum(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = grid3(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sac::sum(a));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_StridedGenerator(benchmark::State& state) {
  const extent_t n = state.range(0);
  const Shape shp = cube_shape(3, n);
  for (auto _ : state) {
    auto a = sac::with_genarray<double>(
        shp, sac::gen_range({0}, {n}).with_step(2),
        [](const IndexVec&) { return 1.0; }, 0.0);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n / 8);
}

void BM_RotateRank2(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = grid2(n);
  for (auto _ : state) {
    auto r = sac::rotate({3, -2}, a);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}

void BM_TransposeRank2(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = grid2(n);
  for (auto _ : state) {
    auto r = sac::transpose(a);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}

void BM_CopyOnWrite(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = grid3(n);
  for (auto _ : state) {
    Array<double> shared = a;  // O(1)
    shared.mutable_data()[0] = 1.0;  // deep copy
    benchmark::DoNotOptimize(shared.data());
  }
  state.SetBytesProcessed(state.iterations() * n * n * n * 8);
}

void BM_SharedCopyIsO1(benchmark::State& state) {
  auto a = grid3(state.range(0));
  for (auto _ : state) {
    Array<double> b = a;
    benchmark::DoNotOptimize(b.data());
  }
}

// One in-place periodic border: MgSac's six ghost-face shift partitions.
void BM_BorderExchangeWithLoop(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = grid3(n);
  for (auto _ : state) {
    a = mg::MgSac::setup_periodic_border(std::move(a));
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 6 * n * n);
}

}  // namespace

BENCHMARK(BM_GenarrayRank3Body)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenarrayIndexVectorBody)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ModarrayInterior)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FoldSum)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StridedGenerator)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RotateRank2)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TransposeRank2)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CopyOnWrite)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SharedCopyIsO1)->Arg(64);
BENCHMARK(BM_BorderExchangeWithLoop)
    ->Arg(66)
    ->Arg(258)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
