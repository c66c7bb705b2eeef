/* Two small OS-facing primitives a pool worker needs and the OCaml stdlib
   does not expose:

   - setrlimit(RLIMIT_AS), so a worker whose check balloons fails its own
     allocation (Out_of_memory, classified as a resource limit) instead of
     inviting the OOM killer (an unclassifiable SIGKILL);
   - madvise(MADV_DONTNEED) on the free part of the minor heap, so a fresh
     fork does not copy its parent's nursery page by page.

   Both degrade gracefully where the OS lacks the facility: the rlimit call
   reports failure and the caller simply runs uncapped, and the nursery is
   left as it is. (The monotonic clock lives with the other clock readers,
   in lib/obs/clock_stubs.c.) */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/domain_state.h>

#include <stdint.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

CAMLprim value shelley_set_rlimit_as(value mb)
{
  CAMLparam1(mb);
#if defined(RLIMIT_AS)
  struct rlimit rl;
  rlim_t bytes = (rlim_t)Long_val(mb) * 1024 * 1024;
  rl.rlim_cur = bytes;
  rl.rlim_max = bytes;
  CAMLreturn(Val_bool(setrlimit(RLIMIT_AS, &rl) == 0));
#else
  CAMLreturn(Val_false);
#endif
}

/* After fork the child shares its parent's pages copy-on-write, the minor
   heap (2 MiB by default) among them. Allocation walks down through it, so
   the child's first task writes every free nursery page, and each first
   write copies a page it will overwrite anyway. Here the free part,
   [young_start, young_ptr) rounded inward to whole pages, is dropped: the
   next touch maps a zero page instead of copying, and the parent's
   nursery stops being shared. OCaml 5 allocates downward, so every live
   young object lies above young_ptr and keeps its pages. No allocation
   happens here, so young_ptr cannot move under the call. */
CAMLprim value shelley_drop_free_nursery(value unit)
{
  (void)unit;
#if defined(MADV_DONTNEED)
  long page = sysconf(_SC_PAGESIZE);
  if (page > 0) {
    uintptr_t mask = (uintptr_t)page - 1;
    uintptr_t lo = ((uintptr_t)Caml_state->young_start + mask) & ~mask;
    uintptr_t hi = (uintptr_t)Caml_state->young_ptr & ~mask;
    if (hi > lo) (void)madvise((void *)lo, hi - lo, MADV_DONTNEED);
  }
#endif
  return Val_unit;
}
