/* Pin the benchmark process to one CPU.

   On a shared virtual machine, a daemon thread handing a request to a
   client thread on the other, idle vCPU waits for that vCPU to be
   woken, and how long that takes depends on the host's load.  Keeping
   every thread of the process on one CPU removes that wait from the
   measurements; the workloads are single-threaded baselines anyway. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#endif

/* Restrict the calling thread (and the threads it creates later) to
   the lowest CPU it may run on.  Returns that CPU, or -1 when affinity
   cannot be read or set on this system. */
value hsp_bench_pin_lowest_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return Val_int(sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1);
    }
  }
#endif
  return Val_int(-1);
}
