/* wait4(2) for the ledger harness. OCaml's Unix module reaps children
   but drops their resource usage, and the benchmark reports the CPU time
   and peak resident set of every armvirt invocation it starts. Also CPU
   affinity, which OCaml's Unix module lacks too. */

#define _GNU_SOURCE
#define CAML_NAME_SPACE
#include <errno.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double seconds_of_timeval(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec * 1e-6;
}

/* Waits up to [timeout_ms] for [pid] to end, through a pidfd so the wait
   costs nothing while the child runs; kills it with SIGKILL if it has not
   ended by then. Returns whether it was killed. Without pidfd support
   (Linux before 5.3) there is no timeout. */
static int kill_after(pid_t pid, int timeout_ms)
{
#ifdef SYS_pidfd_open
  int fd = (int)syscall(SYS_pidfd_open, pid, 0), r, killed = 0;
  if (fd < 0) return 0;
  struct pollfd p = {.fd = fd, .events = POLLIN};
  do {
    r = poll(&p, 1, timeout_ms);
  } while (r < 0 && errno == EINTR);
  if (r == 0) {
    kill(pid, SIGKILL);
    killed = 1;
  }
  close(fd);
  return killed;
#else
  (void)pid;
  (void)timeout_ms;
  return 0;
#endif
}

/* ledger_wait4 pid timeout_s = (status, cpu_s, maxrss_kb, timed_out).
   Blocks until child [pid] ends, killing it after [timeout_s]. [status]
   is its exit code, or minus the signal that killed it; [cpu_s] is user
   plus system time; [maxrss_kb] is ru_maxrss, in KiB on Linux. */
CAMLprim value ledger_wait4(value vpid, value vtimeout)
{
  CAMLparam2(vpid, vtimeout);
  CAMLlocal2(res, cpu);
  pid_t pid = Int_val(vpid);
  int timeout_ms = (int)(Double_val(vtimeout) * 1000.);
  struct rusage ru;
  int status = 0, r, err, timed_out;

  caml_enter_blocking_section();
  timed_out = kill_after(pid, timeout_ms);
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));

  cpu = caml_copy_double(seconds_of_timeval(ru.ru_utime) +
                         seconds_of_timeval(ru.ru_stime));
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status)     ? WEXITSTATUS(status)
                      : WIFSIGNALED(status) ? -WTERMSIG(status)
                                            : -1));
  Store_field(res, 1, cpu);
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  Store_field(res, 3, Val_bool(timed_out));
  CAMLreturn(res);
}

/* ledger_use_cpus first n: restricts the calling thread, and so every
   child it starts from then on, to [n] of the CPUs it was first allowed
   to run on (all of them when [n] is larger), starting at the [first]th
   and wrapping around. Returns how many CPUs it may use now; 1 when the
   affinity calls fail, which leave it as it was. */
CAMLprim value ledger_use_cpus(value vfirst, value vn)
{
  static int allowed[CPU_SETSIZE], count = 0;
  cpu_set_t set;
  long n = Long_val(vn); /* max_int does not fit an int */
  int i, kept;

  if (count == 0) {
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) != 0) return Val_int(1);
    for (i = 0; i < CPU_SETSIZE; i++)
      if (CPU_ISSET(i, &mask)) allowed[count++] = i;
    if (count == 0) return Val_int(1);
  }
  CPU_ZERO(&set);
  for (kept = 0; kept < count && kept < n; kept++)
    CPU_SET(allowed[(Long_val(vfirst) + kept) % count], &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(1);
  return Val_int(kept);
}
