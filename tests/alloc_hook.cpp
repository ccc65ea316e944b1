// Global operator-new counting hook for the test binary (declared in
// test_util.h) and the bench binaries (bench_util.h).  Every replaceable
// allocation function funnels through a relaxed atomic counter, so tests
// can assert that a code path performs zero heap allocations — the
// steady-state counter hot-path guarantee.
// A per-thread count beside it lets a bench that measures on several
// threads at once charge each thread only its own allocations.
#include <atomic>
#include <cstdlib>
#include <new>

namespace papirepro::test {

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
thread_local std::uint64_t t_allocation_count = 0;
}  // namespace

std::uint64_t allocation_count() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

std::uint64_t thread_allocation_count() { return t_allocation_count; }

}  // namespace papirepro::test

namespace {

void* counted_alloc(std::size_t size) {
  papirepro::test::g_allocation_count.fetch_add(1,
                                                std::memory_order_relaxed);
  ++papirepro::test::t_allocation_count;
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  papirepro::test::g_allocation_count.fetch_add(1,
                                                std::memory_order_relaxed);
  ++papirepro::test::t_allocation_count;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size ? size : 1) !=
      0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
