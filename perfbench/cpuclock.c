/* Process CPU clocks and CPU pinning for the benchmark. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>

/* CPU seconds (all threads) used so far by process [pid], read from
   its POSIX CPU-time clock; 0 means the calling process.  The kernel
   counts only time the process actually ran, so on a shared virtual
   machine this leaves out run-queue waits and host steal. */
value perfbench_process_cpu(value pid)
{
  clockid_t clock;
  struct timespec ts;
  if (clock_getcpuclockid(Int_val(pid), &clock) != 0
      || clock_gettime(clock, &ts) != 0)
    caml_failwith("process_cpu: no CPU-time clock for this process");
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

/* Pin the calling thread, and so every process it starts later, to the
   CPU it runs on now.  Returns that CPU, or -1 if it cannot. */
value perfbench_pin_cpu(value unit)
{
  cpu_set_t set;
  int cpu = sched_getcpu();
  (void)unit;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
