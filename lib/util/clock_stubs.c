/* The library's one monotonic clock: CLOCK_MONOTONIC in nanoseconds,
   as an OCaml int (63 bits hold ~146 years of nanoseconds). */

#include <time.h>
#include <caml/mlvalues.h>

value iddq_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
