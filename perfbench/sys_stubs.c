/* System calls the OCaml runtime does not expose: a nanosecond
   monotonic clock, and CPU affinity (pin the calling thread, and every
   process it starts while pinned, to the last CPU it may run on; move a
   thread to another of those CPUs; later restore the mask it had
   before). */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_monotonic_s(value unit)
{
  (void)unit;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

static cpu_set_t saved;
static int have_saved = 0;

/* Leaves the mask unchanged when the kernel refuses. */
value perfbench_pin(value unit)
{
  (void)unit;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_unit;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) cpu = i;
  if (cpu < 0) return Val_unit;
  if (!have_saved) {
    saved = set;
    have_saved = 1;
  }
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
  return Val_unit;
}

/* Pin thread [tid] (0: the calling thread) to the [k]-th CPU, counting
   modulo the CPUs the calling thread had before it was first pinned.
   Leaves the mask unchanged when the kernel refuses. */
value perfbench_pin_to(value vtid, value vk)
{
  cpu_set_t base, set;
  if (have_saved)
    base = saved;
  else if (sched_getaffinity(0, sizeof base, &base) != 0)
    return Val_unit;
  int count = CPU_COUNT(&base);
  if (count == 0) return Val_unit;
  int k = Int_val(vk) % count, cpu = -1;
  for (int i = 0; i < CPU_SETSIZE && cpu < 0; i++)
    if (CPU_ISSET(i, &base) && k-- == 0) cpu = i;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(Int_val(vtid), sizeof set, &set);
  return Val_unit;
}

value perfbench_unpin(value unit)
{
  (void)unit;
  if (have_saved) {
    sched_setaffinity(0, sizeof saved, &saved);
    have_saved = 0;
  }
  return Val_unit;
}
