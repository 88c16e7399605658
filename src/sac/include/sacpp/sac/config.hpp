#pragma once
// Runtime configuration of the SAC-style array system.
//
// sac2c applies its optimisations (with-loop folding, reference-counting
// memory reuse, with-loop scalarisation / index-vector elimination, implicit
// multithreading) at compile time.  In this embedded reproduction they are
// runtime-selectable strategies so that the ablation benchmarks (DESIGN.md
// D1-D4) can quantify each one's contribution.

#include <cstdint>
#include <string>

namespace sacpp::sac {

// Stencil evaluation strategy (stencil.hpp; docs/stencil.md).  Lives here —
// not in stencil.hpp — so SacConfig can carry the process-wide default
// without a circular include.
//  * kGrouped — sum the neighbours of each coefficient class first, then one
//    multiplication per class (4 mults / 26 adds for rank 3); sac2c reaches
//    this form implicitly, and it is our default.
//  * kNaive — one multiply-add per stencil point (27 mults / 26 adds).
//  * kPlanes — the NPB Fortran hand optimisation: per-class row partial sums
//    shared between neighbouring output points (4 mults / ~16 adds with
//    reuse).  Falls back to kGrouped per-point evaluation on grids below
//    SacConfig::stencil_planes_cutover.
enum class StencilMode { kGrouped, kNaive, kPlanes };

// Canonical names used by SACPP_STENCIL_MODE / --stencil-mode / BENCH_mg.
const char* stencil_mode_name(StencilMode mode);

// Compute backend for the dense-rank-3 row primitives (backend.hpp;
// docs/backends.md).  Lives here — not in backend.hpp — so SacConfig can
// carry the process-wide default without a circular include.
//  * kScalar — today's element-at-a-time row loops, refactored behind the
//    Backend interface; the bit-exact reference every other backend is
//    pinned against.
//  * kSimd — the vectorized row engine: one source compiled for AVX2 and
//    for the build's baseline; the AVX2 instance runs when the CPU has it
//    (runtime CPUID dispatch).  Both instances perform the same arithmetic
//    in the same lane structure, so kSimd results are bit-identical across
//    hosts.
//  * kJit — the runtime code-generation engine (docs/jit.md): row work is
//    captured as a small expression IR, lowered to C++ specialised on the
//    (coefficients, row length) pair, compiled with the host toolchain into
//    a shared object and dlopen'd.  Rows whose kernel is still compiling —
//    or whose compile failed because the host has no usable compiler — run
//    on the kSimd engine; results are bit-identical either way.
// The values are the serve protocol's wire bytes.  Byte 2 belonged to the
// retired simd-portable kind; decoders reject it by name.
enum class BackendKind { kScalar = 0, kSimd = 1, kJit = 3 };

// Canonical names used by SACPP_BACKEND / --backend / BENCH_mg:
// "scalar" | "simd" | "jit".
const char* backend_name(BackendKind kind);

// The backend registry: every selectable kind.  CLI help text and error
// messages enumerate this instead of hard-coding names, so a new engine
// appears everywhere at once.
inline constexpr BackendKind kAllBackendKinds[] = {
    BackendKind::kScalar, BackendKind::kSimd, BackendKind::kJit};

// The canonical names of every registered backend joined with `sep`:
// backend_names() == "scalar | simd | jit".
std::string backend_names(const char* sep = " | ");

struct SacConfig {
  // D1: with-loop folding.  When true, the high-level MG code composes lazy
  // array expressions that fuse into a single traversal; when false every
  // array-library operation materialises its result.
  bool folding = true;

  // D2: uniqueness-based in-place reuse.  When true, modarray and
  // element-wise updates steal the argument buffer if its reference count is
  // one (SAC's reference-counting reuse); when false every operation
  // allocates a fresh buffer.
  bool reuse = true;

  // D3: rank specialisation.  When true, dense rank-3 with-loops run through
  // an unrolled triple loop nest (modelling with-loop scalarisation and
  // index-vector elimination); when false everything goes through the
  // rank-generic odometer walker.
  bool specialize = true;

  // Implicit multithreading (SAC's MT backend).
  bool mt_enabled = false;

  // Number of worker threads when mt_enabled (0 = hardware concurrency).
  unsigned mt_threads = 0;

  // D4: sequential small-grid threshold: with-loops over fewer elements than
  // this run sequentially even when mt_enabled (the paper's
  // bottom-of-the-V-cycle analysis).
  std::int64_t mt_threshold = 4096;

  // sacpp_check verification passes (src/check): when true the array system
  // records buffer-ownership and parallel-region events for the runtime
  // checkers (docs/static_analysis.md).  Off the hot path when false: every
  // recording site is a single predictable branch.  The initial value comes
  // from the SACPP_CHECK environment variable.
  bool check = false;

  // Unified runtime telemetry (sacpp_obs; docs/observability.md): when true
  // the array system, thread pool, buffer pool, MG solvers and msg record
  // spans into per-thread ring buffers plus duration/size histograms, and
  // parallel regions feed the per-level busy/idle/imbalance aggregates.  Off
  // the hot path when false: every instrumentation point is one relaxed
  // atomic load and a predictable branch.  The canonical flag lives in
  // obs::set_enabled; this field mirrors it so ScopedConfig can save and
  // restore it — mutate it through set_obs() (or ScopedConfig), not by
  // direct field assignment.  The initial value comes from SACPP_OBS.
  bool obs = false;

  // Pooled buffer allocator (docs/memory.md): when true Buffer<T> serves
  // allocations from the size-class BufferPool instead of calling
  // std::aligned_alloc/std::free each time — the paper's Sec. 5/6
  // memory-management overhead on the small grids at the bottom of the
  // V-cycle.  Toggleable at any time (every buffer returns its block the
  // way it was allocated).  SACPP_POOL=0 disables it at startup.
  bool pool = true;

  // Stencil evaluation strategy used when a call site does not pick one
  // explicitly (docs/stencil.md).  kGrouped keeps the historical association
  // order, so goldens and the frozen machine-model calibration are
  // unaffected unless kPlanes is opted into via SACPP_STENCIL_MODE=planes
  // or npb_mg --stencil-mode=planes.
  StencilMode stencil_mode = StencilMode::kGrouped;

  // Small-grid cutover for kPlanes: grids whose smallest extent is below
  // this fall back to kGrouped per-point evaluation — at the bottom of the
  // V-cycle the row scratch setup costs more than the additions it saves
  // (the same small-grid economics as mt_threshold / the pool's role on
  // small levels, docs/memory.md).  The MG level ladder is 4, 6, 10, 18,
  // 34, 66, ...; 18 keeps the two coarsest meaningful levels on kGrouped.
  std::int64_t stencil_planes_cutover = 18;

  // Compute backend for the dense-rank-3 row primitives (docs/backends.md).
  // kScalar keeps the historical element order everywhere, so goldens are
  // unaffected unless kSimd is opted into via SACPP_BACKEND=simd or
  // npb_mg --backend=simd.  Element-parallel rows (fills, stencil plane
  // sums/combines, gathers) are bit-identical across backends; only the
  // row folds (L2 / max-abs norms) reassociate, in a fixed lane order.
  BackendKind backend = BackendKind::kScalar;
};

// Process-global configuration used by all with-loop executions.
SacConfig& config();

namespace detail {
// Per-thread configuration override (see ConfigBinding).  Read on every hot
// path through active_config(); nullptr means "use the process global".
// constinit tells every including translation unit that the variable needs
// no dynamic initialisation, so a read is one thread-pointer-relative load
// instead of a call through the TLS init function.
extern constinit thread_local const SacConfig* tl_config;
}  // namespace detail

// The configuration governing work on the calling thread: the thread's bound
// per-job snapshot when one is installed, the process global otherwise.
// Every optimisation/strategy decision in the array system reads this — not
// config() directly — so concurrent solves with different knobs (stencil
// mode, pool, MT) cannot bleed into each other (docs/serve.md).  The MT
// runtime propagates the coordinator's binding to its workers for the
// duration of each parallel region.
inline const SacConfig& active_config() noexcept {
  const SacConfig* bound = detail::tl_config;
  return bound != nullptr ? *bound : config();
}

// RAII: bind a per-job configuration snapshot to the calling thread.  The
// snapshot must outlive the binding (the serve executors keep it in the job
// frame).  Bindings nest; destruction restores the previous binding.  Unlike
// ScopedConfig this touches no global state, so any number of threads can
// hold different bindings concurrently.
class ConfigBinding {
 public:
  explicit ConfigBinding(const SacConfig* cfg) noexcept
      : prev_(detail::tl_config) {
    detail::tl_config = cfg;
  }
  ~ConfigBinding() { detail::tl_config = prev_; }
  ConfigBinding(const ConfigBinding&) = delete;
  ConfigBinding& operator=(const ConfigBinding&) = delete;

 private:
  const SacConfig* prev_;
};

// The configuration a fresh process starts from: defaults plus environment
// overrides (SACPP_CHECK=1 enables the verification passes, SACPP_POOL=0/1
// disables/enables the pooled allocator, SACPP_OBS=1 enables telemetry,
// SACPP_STENCIL_MODE=grouped|naive|planes selects the stencil strategy,
// SACPP_BACKEND=scalar|simd|jit the row engine).  An unknown stencil mode
// or backend name keeps the default and prints one line to stderr naming
// the value and the accepted names.  Exposed so tests can exercise the
// environment parsing directly.
SacConfig config_from_env();

// Parse a stencil mode name ("grouped" | "naive" | "planes").  Returns false
// (leaving `out` untouched) on anything else.
bool parse_stencil_mode(const char* name, StencilMode* out);

// Parse a backend name (any entry of backend_names()).  Returns false
// (leaving `out` untouched) on anything else.
bool parse_backend(const char* name, BackendKind* out);

// Toggle telemetry recording: sets both SacConfig::obs and the obs layer's
// own flag (the one instrumentation points actually test).
void set_obs(bool on);

// RAII override of the global configuration (restores on destruction).
// Used by tests and ablation benches to run the same code under different
// optimisation settings.
class ScopedConfig {
 public:
  explicit ScopedConfig(const SacConfig& cfg);
  ~ScopedConfig();
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

 private:
  SacConfig saved_;
};

}  // namespace sacpp::sac
