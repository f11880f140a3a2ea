/* fork, exec and wait4 for launch.ml. A process's peak RSS as wait4
   reports it is never below the RSS of the process it was forked from,
   so the fork is made here, from a small process, not from run.py. */

#define _GNU_SOURCE
#include <errno.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

static double now(void)
{
  struct timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

/* (status, wall seconds, CPU seconds, peak RSS in KiB); status is the
   exit code, or minus the signal number that ended the process. */
value perfbench_launch(value argv)
{
  CAMLparam1(argv);
  CAMLlocal1(res);
  mlsize_t n = Wosize_val(argv), i;
  char **args = malloc((n + 1) * sizeof(char *));
  int status = 0, code;
  struct rusage ru;
  double t0, t1;
  pid_t pid;

  for (i = 0; i < n; i++) args[i] = (char *)String_val(Field(argv, i));
  args[n] = NULL;
  t0 = now();
  pid = fork();
  if (pid == 0) {
    execv(args[0], args);
    _exit(127);
  }
  if (pid < 0) {
    free(args);
    caml_failwith("fork failed");
  }
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR)
    ;
  t1 = now();
  free(args);
  code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, caml_copy_double(t1 - t0));
  Store_field(res, 2,
              caml_copy_double((double)ru.ru_utime.tv_sec
                               + 1e-6 * (double)ru.ru_utime.tv_usec
                               + (double)ru.ru_stime.tv_sec
                               + 1e-6 * (double)ru.ru_stime.tv_usec));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
