/* The monotonic clock behind every timer and recorder (see clock.mli).
   OCaml's Unix library exposes only the real-time clock, which jumps when
   NTP steps it or an operator changes the date; a deadline, reap or span
   measured on it can then fire early, late or go negative. Where the OS
   lacks CLOCK_MONOTONIC this falls back to the real-time clock. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

#include <time.h>
#include <sys/time.h>

CAMLprim value shelley_monotonic_time(value unit)
{
  CAMLparam1(unit);
#if defined(CLOCK_MONOTONIC)
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) == 0)
    CAMLreturn(caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9));
#endif
  {
    struct timeval tv;
    gettimeofday(&tv, NULL);
    CAMLreturn(caml_copy_double((double)tv.tv_sec + (double)tv.tv_usec * 1e-6));
  }
}
