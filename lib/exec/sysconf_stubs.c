/* A small OS-facing primitive the overload-safe daemon needs and the OCaml
   stdlib does not expose: setrlimit(RLIMIT_AS), so a worker whose check
   balloons fails its own allocation (Out_of_memory, classified as a
   resource limit) instead of inviting the OOM killer (an unclassifiable
   SIGKILL).

   It degrades gracefully where the OS lacks the facility: the call reports
   failure and the caller simply runs uncapped. (The monotonic clock lives
   with the other clock readers, in lib/obs/clock_stubs.c.) */

#include <caml/mlvalues.h>
#include <caml/memory.h>

#include <sys/resource.h>

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
