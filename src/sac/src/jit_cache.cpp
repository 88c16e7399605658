// The JIT kernel cache: in-memory table, background compile thread, host
// toolchain invocation, dlopen, and the SACPP_JIT_CACHE_DIR disk cache
// (docs/jit.md).
//
// Hot path: lookup() is one FNV hash of the POD key plus a lock-free probe
// of an insert-only open-addressed table — ~15 ns, no allocation, no lock.
// Everything slow (IR construction, source lowering, the compiler fork,
// dlopen) happens once per kernel shape, off the calling thread unless
// SACPP_JIT_SYNC=1.
//
// Degradation: any failure — compiler missing (SACPP_JIT_CC=/nonexistent),
// unwritable workspace, dlopen rejection — prints one diagnostic, counts
// stats().jit_compile_fails and flips the engine into permanent fallback
// mode.  The JitBackend then routes every row to the SIMD engine, whose
// results are bit-identical (backend.hpp), so a host without a toolchain
// is slower, never wrong.

#include <dlfcn.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/jit.hpp"
#include "sacpp/sac/stats.hpp"

extern char** environ;

namespace sacpp::sac::jit {

namespace detail {
std::atomic<std::uint32_t> g_epoch{1};
}  // namespace detail

namespace {

constexpr std::size_t kSlots = 1024;  // power of two; insert-only

std::uint64_t hash_key(const KernelKey& k) noexcept {
  // Word-wise FNV-1a over the key fields (never struct padding), with a
  // murmur-style finisher for low-bit diffusion.  This sits on the per-row
  // dispatch path, so it is one multiply per field, not one per byte.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(k.prim) |
      (static_cast<std::uint64_t>(k.accumulate) << 8));
  mix(static_cast<std::uint64_t>(k.length));
  mix(static_cast<std::uint64_t>(k.lo));
  mix(static_cast<std::uint64_t>(k.hi));
  mix(static_cast<std::uint64_t>(k.stride));
  for (std::uint64_t c : k.c) mix(c);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

struct Entry {
  KernelKey key;
  std::atomic<KernelFn> fn{nullptr};
  std::atomic<bool> queued{false};
  RowProgram prog;        // built once, at request time
  std::uint64_t ir_hash;  // stable disk-cache identity
};

struct Cache {
  std::atomic<Entry*> slots[kSlots] = {};
  std::mutex mu;  // inserts, queue, worker lifecycle
  std::condition_variable cv;
  std::deque<Entry*> queue;
  bool worker_running = false;
  bool worker_busy = false;
  std::atomic<bool> disabled{false};
  std::atomic<bool> diag_printed{false};
};

// Leaked on purpose: compiled kernels and the worker may outlive static
// destruction; the global pointer keeps the block reachable for LSan.
Cache* cache() {
  static Cache* c = new Cache;
  return c;
}

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// mkdir -p for the cache dir: a missing directory should mean "first run",
// not a degraded engine.  Best-effort — EEXIST and races are fine, and a
// real permission problem still surfaces as the compile-workspace
// diagnostic, which carries more context than a failure here could.
void ensure_dir(const std::string& dir) {
  std::string path;
  for (std::size_t i = 0; i < dir.size(); ++i) {
    path += dir[i];
    if ((dir[i] == '/' && i > 0) || i + 1 == dir.size()) {
      ::mkdir(path.c_str(), 0755);
    }
  }
}

std::string workspace_dir() {
  const char* dir = std::getenv("SACPP_JIT_CACHE_DIR");
  if (dir != nullptr && dir[0] != '\0') {
    ensure_dir(dir);
    return dir;
  }
  const char* tmp = std::getenv("TMPDIR");
  return tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp";
}

bool disk_cache_enabled() {
  const char* dir = std::getenv("SACPP_JIT_CACHE_DIR");
  return dir != nullptr && dir[0] != '\0';
}

std::string so_name(const Entry& e) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "sacpp_jit_v1_p%02u_%016llx.so", e.key.prim,
                static_cast<unsigned long long>(e.ir_hash));
  return buf;
}

void disable_with_diag(const char* what, const std::string& detail) {
  Cache* c = cache();
  stats().jit_compile_fails += 1;
  c->disabled.store(true, std::memory_order_release);
  detail::g_epoch.fetch_add(1, std::memory_order_release);  // drop stale memos
  if (!c->diag_printed.exchange(true)) {
    std::fprintf(stderr,
                 "sacpp jit: %s (%s); degrading to the simd engine for this "
                 "process — results are unchanged, only slower\n",
                 what, detail.c_str());
  }
}

// dlopen `path` and publish its kernel into `e`.  Returns false (without
// disabling) when the object is unusable, so callers can fall back to a
// fresh compile of a stale disk-cache file.
bool publish_from_so(Entry& e, const std::string& path) {
  void* handle = ::dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return false;
  void* sym = ::dlsym(handle, "sacpp_jit_kernel");
  if (sym == nullptr) {
    ::dlclose(handle);
    return false;
  }
  e.fn.store(reinterpret_cast<KernelFn>(sym), std::memory_order_release);
  return true;  // handle stays open for the process lifetime
}

// Whether the CPU has AVX-512 F+DQ+VL (cached CPUID probe).
bool cpu_has_avx512() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx512f") != 0 &&
                          __builtin_cpu_supports("avx512dq") != 0 &&
                          __builtin_cpu_supports("avx512vl") != 0;
  return has;
#else
  return false;
#endif
}

// Run the host compiler on src -> so.  Returns false with `detail` filled
// on any failure.
bool run_compiler(const std::string& src, const std::string& so,
                  std::string* detail) {
  const char* cc = std::getenv("SACPP_JIT_CC");
  if (cc == nullptr || cc[0] == '\0') cc = "c++";
  // GCC tunes -march=native AVX-512 targets to 256-bit vectors by default;
  // the autovectorized kernels (plane sums, ewise, gather/scatter) want the
  // full width.  The flag is x86-only, so it is gated on a CPUID probe.
  const char* width =
      cpu_has_avx512() ? "-mprefer-vector-width=512" : "-ffp-contract=off";
  const char* argv[] = {cc,       "-O3",     "-march=native",
                        "-ffp-contract=off", width, "-shared", "-fPIC",
                        "-o",     so.c_str(), src.c_str(), nullptr};
  pid_t pid = -1;
  const int rc = ::posix_spawnp(&pid, cc, nullptr, nullptr,
                                const_cast<char**>(argv), environ);
  if (rc != 0) {
    *detail = std::string(cc) + ": " + std::strerror(rc);
    return false;
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    *detail = std::string(cc) + " exited with status " +
              std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    return false;
  }
  return true;
}

// Build (or load from disk) the kernel for `e`.  Any hard failure disables
// the engine.
void compile_entry(Entry& e) {
  Cache* c = cache();
  if (c->disabled.load(std::memory_order_acquire)) return;
  const auto t0 = std::chrono::steady_clock::now();
  const std::string dir = workspace_dir();
  const std::string name = so_name(e);
  const std::string final_so = dir + "/" + name;
  if (disk_cache_enabled()) {
    struct stat st;
    if (::stat(final_so.c_str(), &st) == 0 && publish_from_so(e, final_so)) {
      stats().jit_disk_hits += 1;
      return;
    }
  }
  std::string tag = ".";
  tag += std::to_string(static_cast<long>(::getpid()));
  const std::string src = final_so + tag + ".cpp";
  const std::string tmp_so = final_so + tag + ".tmp";
  const std::string code = generate_source(e.prog);
  std::FILE* f = std::fopen(src.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(code.data(), 1, code.size(), f) != code.size() ||
      std::fclose(f) != 0) {
    if (f != nullptr) std::fclose(f);
    disable_with_diag("cannot write kernel source", src);
    return;
  }
  std::string detail;
  if (!run_compiler(src, tmp_so, &detail)) {
    ::unlink(src.c_str());
    ::unlink(tmp_so.c_str());
    disable_with_diag("host compiler unavailable or failed", detail);
    return;
  }
  ::unlink(src.c_str());
  // Without a disk cache the kernel loads from this process's own file:
  // under the shared name another process could unlink it between our
  // rename and dlopen.
  const bool persist = disk_cache_enabled();
  if (persist && ::rename(tmp_so.c_str(), final_so.c_str()) != 0) {
    ::unlink(tmp_so.c_str());
    disable_with_diag("cannot move compiled kernel into place", final_so);
    return;
  }
  const std::string& so = persist ? final_so : tmp_so;
  const bool published = publish_from_so(e, so);
  if (!persist) ::unlink(tmp_so.c_str());  // a loaded mapping persists
  if (!published) {
    const char* why = dlerror();  // a second call would return null
    disable_with_diag("dlopen rejected compiled kernel",
                      why != nullptr ? why : so);
    return;
  }
  stats().jit_compiles += 1;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  obs::observe(obs::Hist::kJitCompileNs, static_cast<std::uint64_t>(ns));
}

void worker_loop() {
  Cache* c = cache();
  std::unique_lock<std::mutex> lock(c->mu);
  for (;;) {
    c->cv.wait(lock, [c] { return !c->queue.empty(); });
    Entry* e = c->queue.front();
    c->queue.pop_front();
    c->worker_busy = true;
    lock.unlock();
    compile_entry(*e);
    lock.lock();
    c->worker_busy = false;
    c->cv.notify_all();  // wake drain()
  }
}

// Find the slot for `key`, or the first empty slot of its probe chain.
// Returns nullptr on a full table (kernel set outgrew kSlots — fall back).
std::atomic<Entry*>* probe(const KernelKey& key, Entry** found) {
  Cache* c = cache();
  std::size_t i = hash_key(key) & (kSlots - 1);
  for (std::size_t n = 0; n < kSlots; ++n, i = (i + 1) & (kSlots - 1)) {
    Entry* e = c->slots[i].load(std::memory_order_acquire);
    if (e == nullptr) {
      *found = nullptr;
      return &c->slots[i];
    }
    if (e->key == key) {
      *found = e;
      return &c->slots[i];
    }
  }
  *found = nullptr;
  return nullptr;
}

}  // namespace

KernelFn lookup(const KernelKey& key) noexcept {
  Entry* e = nullptr;
  probe(key, &e);
  return e != nullptr ? e->fn.load(std::memory_order_acquire) : nullptr;
}

KernelFn request(const KernelKey& key, RowProgram (*make)(const KernelKey&)) {
  Cache* c = cache();
  if (c->disabled.load(std::memory_order_acquire)) return nullptr;
  Entry* e = nullptr;
  probe(key, &e);
  if (e == nullptr) {
    std::lock_guard<std::mutex> lock(c->mu);
    std::atomic<Entry*>* slot = probe(key, &e);
    if (slot == nullptr) return nullptr;  // table full: permanent fallback
    if (e == nullptr) {
      Entry* fresh = new Entry;  // leaked with the cache, by design
      fresh->key = key;
      fresh->prog = make(key);
      fresh->ir_hash = fresh->prog.hash();
      slot->store(fresh, std::memory_order_release);
      e = fresh;
    }
  }
  KernelFn fn = e->fn.load(std::memory_order_acquire);
  if (fn != nullptr) return fn;
  if (env_truthy("SACPP_JIT_SYNC")) {
    // One thread compiles; others keep falling back until it lands.
    if (!e->queued.exchange(true)) compile_entry(*e);
    return e->fn.load(std::memory_order_acquire);
  }
  if (!e->queued.exchange(true)) {
    std::lock_guard<std::mutex> lock(c->mu);
    c->queue.push_back(e);
    if (!c->worker_running) {
      c->worker_running = true;
      std::thread(worker_loop).detach();
    }
    c->cv.notify_all();
  }
  return nullptr;
}

void drain() {
  Cache* c = cache();
  std::unique_lock<std::mutex> lock(c->mu);
  c->cv.wait(lock, [c] { return c->queue.empty() && !c->worker_busy; });
}

bool available() noexcept {
  return !cache()->disabled.load(std::memory_order_acquire);
}

namespace testing {
void reset() {
  drain();
  Cache* c = cache();
  std::lock_guard<std::mutex> lock(c->mu);
  for (std::size_t i = 0; i < kSlots; ++i) {
    c->slots[i].store(nullptr, std::memory_order_release);
  }
  c->disabled.store(false, std::memory_order_release);
  c->diag_printed.store(false, std::memory_order_release);
  detail::g_epoch.fetch_add(1, std::memory_order_release);
}
}  // namespace testing

}  // namespace sacpp::sac::jit
