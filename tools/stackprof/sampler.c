/* Call-stack sampler for any Linux process, loaded with LD_PRELOAD.

   Build (outside dune; it is a tool, not part of the tree's build):

       gcc -O2 -shared -fPIC -o stackprof.so tools/stackprof/sampler.c

   Run:

       LD_PRELOAD=$PWD/stackprof.so  some-program args...

   Every process that loads it (children included) writes
   stackprof.<pid>.out in its working directory: a header naming the
   executable and its load address, then one line per sample,

       s <pc> <return address> <return address> ...

   innermost frame first, addresses in hex.  Samples come from
   ITIMER_PROF (1 kHz of the process's CPU time), so an idle process
   records nothing.  The stack is walked with glibc's backtrace(), which
   follows DWARF unwind tables (OCaml emits them), so neither frame
   pointers nor kernel settings are needed, unlike perf.  Symbolise and
   tabulate with tools/stackprof/stackprof.py. */

#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 128
#define BUF_BYTES (1 << 20)
#define ALT_STACK_BYTES (256 * 1024)

static int out_fd = -1;
static char buf[BUF_BYTES];
static size_t buf_len;
static volatile int busy; /* a sample is being written: drop concurrent ones */
static volatile unsigned long dropped;

static void flush_buf(void) {
  size_t off = 0;
  while (off < buf_len) {
    ssize_t n = write(out_fd, buf + off, buf_len - off);
    if (n <= 0) break;
    off += (size_t)n;
  }
  buf_len = 0;
}

/* Async-signal-safe: no stdio in the handler. */
static void put_hex(uintptr_t x) {
  char tmp[2 + 2 * sizeof x];
  int i = (int)sizeof tmp;
  do {
    tmp[--i] = "0123456789abcdef"[x & 15];
    x >>= 4;
  } while (x);
  tmp[--i] = 'x';
  tmp[--i] = '0';
  memcpy(buf + buf_len, tmp + i, sizeof tmp - (size_t)i);
  buf_len += sizeof tmp - (size_t)i;
}

static void on_prof(int sig, siginfo_t *si, void *uc_) {
  (void)sig;
  (void)si;
  if (out_fd < 0 || __sync_lock_test_and_set(&busy, 1)) {
    dropped++;
    return;
  }
  ucontext_t *uc = uc_;
#if defined(__x86_64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "stackprof: reads the interrupted pc on x86-64 and AArch64 only"
#endif
  void *frames[MAX_DEPTH];
  int n = backtrace(frames, MAX_DEPTH);
  /* Skip this handler and the signal trampoline: the interrupted frame
     is the one whose address is the interrupted pc. */
  int first = -1;
  for (int i = 0; i < n; i++)
    if ((uintptr_t)frames[i] == pc) {
      first = i + 1;
      break;
    }
  if (first < 0) first = n < 2 ? n : 2;
  if (buf_len + (size_t)(n + 2) * 20 > BUF_BYTES) flush_buf();
  buf[buf_len++] = 's';
  buf[buf_len++] = ' ';
  put_hex(pc);
  for (int i = first; i < n; i++) {
    buf[buf_len++] = ' ';
    put_hex((uintptr_t)frames[i]);
  }
  buf[buf_len++] = '\n';
  __sync_lock_release(&busy);
}

/* The first object dl_iterate_phdr reports is the executable; its
   dlpi_addr is the load bias (0 unless it is position-independent). */
static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size;
  *(uintptr_t *)data = (uintptr_t)info->dlpi_addr;
  return 1;
}

/* A forked child that does not exec must not write the parent's
   buffered samples: it records nothing (an exec starts afresh). */
static void in_child(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  buf_len = 0;
  if (out_fd >= 0) close(out_fd);
  out_fd = -1;
}

__attribute__((constructor)) static void stackprof_start(void) {
  char path[64], exe[4096];
  snprintf(path, sizeof path, "stackprof.%d.out", (int)getpid());
  out_fd = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0) return;
  ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len < 0 ? 0 : len] = '\0';
  uintptr_t base = 0;
  dl_iterate_phdr(first_object, &base);
  dprintf(out_fd, "# stackprof 1\nexe %s\nbase 0x%lx\n", exe, (unsigned long)base);

  /* backtrace() loads libgcc on first use, which is not signal-safe:
     do it now. */
  void *warm[4];
  backtrace(warm, 4);

  /* Run the handler on its own stack: OCaml 5 runs OCaml code on small
     fiber stacks that a signal handler must not grow. */
  stack_t ss = {.ss_sp = malloc(ALT_STACK_BYTES), .ss_size = ALT_STACK_BYTES};
  if (ss.ss_sp) sigaltstack(&ss, NULL);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  pthread_atfork(NULL, NULL, in_child);
  struct itimerval it = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stackprof_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (out_fd < 0) return;
  while (__sync_lock_test_and_set(&busy, 1)) {
  }
  flush_buf();
  dprintf(out_fd, "dropped %lu\n", dropped);
  close(out_fd);
  out_fd = -1;
}
