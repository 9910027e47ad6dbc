// Tile's heap storage: a per-thread cache of window-sized blocks
// (DESIGN.md §4.4).
//
// A window is made on its buffer's worker and freed on its consumer's. The
// allocator's own per-thread cache cannot serve that pattern: the consumer's
// cache fills with blocks it never allocates, and the producer's never gets
// its own back, so both sides end up under the arena lock. Here every block
// belongs to the cache of the thread that made it:
//   - a block freed by its owning thread goes back on that thread's free
//     list, with plain loads and stores;
//   - a block freed by any other thread is pushed onto its owner's return
//     stack with one CAS;
//   - when an owner's free list runs dry, it takes the whole return stack of
//     that class with one exchange, and only then makes a fresh block.
// So a cache holds at most its thread's peak number of outstanding blocks
// per class.
//
// A thread gets a cache on its first miss. At thread exit the cache is
// released, not freed, and the next thread that needs one adopts it, so a
// block freed after its owner has exited is still returned and reused.
// Caches and their registry are never destroyed: a block freed during
// static destruction, or by a thread whose cache is already released,
// takes the return path like any other cross-thread free.

#include "core/tile.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <new>
#include <type_traits>

#if defined(__SANITIZE_ADDRESS__)
#define BPP_TILE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BPP_TILE_ASAN 1
#endif
#endif
#ifdef BPP_TILE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace bpp {
namespace {

/// Block sizes are whole cache lines of doubles, up to kMaxCachedDoubles.
constexpr std::size_t kClassDoubles = Tile::kAlignBytes / sizeof(double);
constexpr std::size_t kClasses = Tile::kMaxCachedDoubles / kClassDoubles;
static_assert(Tile::kMaxCachedDoubles % kClassDoubles == 0);

struct Cache;

/// Sits in the slack just below a cached block's data().
struct BlockHeader {
  Cache* owner;       ///< null: the block is freed, not cached
  BlockHeader* next;  ///< link on a free list or a return stack
  void* base;         ///< what ::operator new returned
  std::size_t cls;    ///< holds (cls + 1) * kClassDoubles doubles
};

struct alignas(Tile::kAlignBytes) Cache {
  /// Free lists, touched only by the owning thread.
  BlockHeader* local[kClasses] = {};
  /// Blocks freed by other threads, on their own lines.
  alignas(Tile::kAlignBytes)
      std::atomic<BlockHeader*> returned[kClasses] = {};
  /// Link in the registry while no thread owns the cache.
  Cache* next_released = nullptr;
};

/// The registry: caches whose thread has exited, waiting for a thread to
/// adopt them. Only a thread's first miss and its exit take the lock.
/// Neither has a destructor to run, so both outlive static destruction.
constinit std::mutex g_released_mu;
Cache* g_released = nullptr;  ///< guarded by g_released_mu
static_assert(std::is_trivially_destructible_v<std::mutex>);

// constinit: reading the cache on the fast path needs no init guard.
constinit thread_local Cache* t_cache = nullptr;
/// Set once this thread's cache has been released at thread exit.
constinit thread_local bool t_cache_released = false;

/// Releases the thread's cache to the registry at thread exit.
struct CacheReleaser {
  CacheReleaser() = default;
  CacheReleaser(const CacheReleaser&) = delete;
  CacheReleaser& operator=(const CacheReleaser&) = delete;
  ~CacheReleaser() {
    Cache* c = t_cache;
    t_cache = nullptr;
    t_cache_released = true;
    if (c == nullptr) return;
    const std::lock_guard lock(g_released_mu);
    c->next_released = g_released;
    g_released = c;
  }
};

/// The calling thread's cache from the registry, or a new one; null once
/// the thread's cache has been released (its later blocks are uncached).
Cache* adopt_cache() {
  if (t_cache_released) return nullptr;
  static thread_local CacheReleaser releaser;
  Cache* c = nullptr;
  {
    const std::lock_guard lock(g_released_mu);
    c = g_released;
    if (c != nullptr) g_released = c->next_released;
  }
  if (c == nullptr) c = new Cache;
  t_cache = c;
  return c;
}

void poison(BlockHeader* b) {
#ifdef BPP_TILE_ASAN
  __asan_poison_memory_region(b + 1,
                              (b->cls + 1) * kClassDoubles * sizeof(double));
#else
  (void)b;
#endif
}

/// The block's data(), readable for `doubles` doubles.
double* open_block(BlockHeader* b, std::size_t doubles) {
#ifdef BPP_TILE_ASAN
  __asan_unpoison_memory_region(b + 1, doubles * sizeof(double));
#else
  (void)doubles;
#endif
  return reinterpret_cast<double*>(b + 1);
}

/// A fresh block of class `cls` for `owner` (null: freed when given back).
/// data() is rounded up to kAlignBytes past room for the header.
double* fresh_block(Cache* owner, std::size_t cls, std::size_t doubles) {
  const std::size_t bytes = (cls + 1) * kClassDoubles * sizeof(double);
  void* base =
      ::operator new(sizeof(BlockHeader) + bytes + Tile::kAlignBytes);
  const std::uintptr_t aligned =
      (reinterpret_cast<std::uintptr_t>(base) + sizeof(BlockHeader) +
       Tile::kAlignBytes - 1) &
      ~std::uintptr_t{Tile::kAlignBytes - 1};
  auto* b = ::new (reinterpret_cast<BlockHeader*>(aligned) - 1)
      BlockHeader{owner, nullptr, base, cls};
  return open_block(b, doubles);
}

[[gnu::noinline]] double* take_slow(std::size_t cls, std::size_t doubles) {
  Cache* c = t_cache != nullptr ? t_cache : adopt_cache();
  if (c == nullptr) return fresh_block(nullptr, cls, doubles);
  // An adopted cache may come with blocks on its free list.
  BlockHeader* b = c->local[cls];
  if (b == nullptr)
    b = c->returned[cls].exchange(nullptr, std::memory_order_acquire);
  if (b == nullptr) return fresh_block(c, cls, doubles);
  c->local[cls] = b->next;
  return open_block(b, doubles);
}

[[gnu::noinline]] void give_back(BlockHeader* b) noexcept {
  std::atomic<BlockHeader*>& stack = b->owner->returned[b->cls];
  BlockHeader* head = stack.load(std::memory_order_relaxed);
  do {
    b->next = head;
  } while (!stack.compare_exchange_weak(head, b, std::memory_order_release,
                                        std::memory_order_relaxed));
}

}  // namespace

double* Tile::take_block(std::size_t doubles) {
  if (doubles > kMaxCachedDoubles) {
    // Over-allocate by one alignment unit and round up; the block's base
    // pointer sits in the slack just below data(), which ::operator new's
    // own alignment guarantees is at least one pointer wide.
    static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= sizeof(void*));
    void* base = ::operator new(doubles * sizeof(double) + kAlignBytes);
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(base) + kAlignBytes) &
        ~std::uintptr_t{kAlignBytes - 1};
    auto* data = reinterpret_cast<double*>(aligned);
    reinterpret_cast<void**>(data)[-1] = base;
    return data;
  }
  const std::size_t cls = (doubles - 1) / kClassDoubles;
  if (Cache* c = t_cache) [[likely]] {
    if (BlockHeader* b = c->local[cls]) [[likely]] {
      c->local[cls] = b->next;
      return open_block(b, doubles);
    }
  }
  return take_slow(cls, doubles);
}

void Tile::give_block(double* data, std::size_t doubles) noexcept {
  if (doubles > kMaxCachedDoubles) {
    ::operator delete(reinterpret_cast<void**>(data)[-1]);
    return;
  }
  BlockHeader* b = reinterpret_cast<BlockHeader*>(data) - 1;
  Cache* const owner = b->owner;
  if (owner == nullptr) {
    ::operator delete(b->base);
    return;
  }
  poison(b);
  if (owner == t_cache) [[likely]] {
    b->next = owner->local[b->cls];
    owner->local[b->cls] = b;
    return;
  }
  give_back(b);
}

}  // namespace bpp
