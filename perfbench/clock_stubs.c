/* Host clock and CPU pinning for the benchmark: a monotonic clock with
   nanosecond resolution (Unix.gettimeofday is wall-clock time in
   microsecond steps), and sched_setaffinity for the calling thread. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double perfbench_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_now(value unit)
{
  return caml_copy_double(perfbench_now_unboxed(unit));
}

/* Pin the calling thread to one CPU ([cpu] >= 0), or let it run on every
   online CPU ([cpu] < 0). True on success. */
value perfbench_pin(value cpu)
{
  cpu_set_t set;
  long i, n = sysconf(_SC_NPROCESSORS_ONLN);
  CPU_ZERO(&set);
  if (Int_val(cpu) >= 0)
    CPU_SET(Int_val(cpu), &set);
  else
    for (i = 0; i < n && i < CPU_SETSIZE; i++)
      CPU_SET(i, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
