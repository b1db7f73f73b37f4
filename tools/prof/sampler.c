// SIGPROF stack sampler, loaded into a program with LD_PRELOAD.
//
// Every millisecond of CPU time (ITIMER_PROF) the handler records the
// interrupted call stack with backtrace() into a buffer allocated at load
// time. The timer is re-armed in every forked child (timers do not survive
// fork), and each process writes its own samples when it leaves, through
// _exit (wiera_bench's forked rounds) or a normal exit:
//
//   gcc -O2 -shared -fPIC -o sampler.so tools/prof/sampler.c -ldl
//   WIERA_PROF_DIR=out LD_PRELOAD=$PWD/sampler.so ./wiera_bench ...
//   python3 tools/prof/fold.py out/prof.*.txt
//
// Output, out/prof.<pid>.txt: a header naming the program, then one sample
// per line, innermost frame first. A frame in the program is written as its
// offset from the program's load bias (what `nm -n` prints for a PIE), a
// frame in a shared library as `path+offset` from the library's base.
//
// Build it by hand, not with the project: under a sanitizer build the
// sanitizer runtime must be the first library loaded, before any preload.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <unistd.h>

enum {
  kMaxDepth = 128,
  kBufferSlots = 1 << 23,  // 64 MiB of frame slots, touched as used
  kSkipFrames = 2,         // the handler and the signal trampoline
};

// Samples, back to back: a depth slot, then that many frames.
static uintptr_t* g_buf;
static size_t g_len;
static size_t g_samples;
static volatile sig_atomic_t g_active;
static int g_dumped;

// The program's load bias and the address range of its mapped segments.
static uintptr_t g_bias;
static uintptr_t g_lo = UINTPTR_MAX;
static uintptr_t g_hi;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  (void)context;
  if (!g_active || g_buf == NULL) return;
  const int saved_errno = errno;
  if (g_len + 1 + kMaxDepth <= kBufferSlots) {
    const int depth = backtrace((void**)&g_buf[g_len + 1], kMaxDepth);
    if (depth > 0) {
      g_buf[g_len] = (uintptr_t)depth;
      g_len += 1 + (size_t)depth;
      g_samples++;
    }
  }
  errno = saved_errno;
}

static void arm(void) {
  struct itimerval every_ms;
  every_ms.it_interval.tv_sec = 0;
  every_ms.it_interval.tv_usec = 1000;
  every_ms.it_value = every_ms.it_interval;
  setitimer(ITIMER_PROF, &every_ms, NULL);
  g_active = 1;
}

static void disarm(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  g_active = 0;
  setitimer(ITIMER_PROF, &off, NULL);
}

static void in_child(void) {
  g_len = 0;
  g_samples = 0;
  g_dumped = 0;
  arm();
}

static int find_program(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  (void)data;
  // The first object dl_iterate_phdr reports is the program itself.
  g_bias = (uintptr_t)info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD) continue;
    const uintptr_t start = g_bias + ph->p_vaddr;
    if (start < g_lo) g_lo = start;
    if (start + ph->p_memsz > g_hi) g_hi = start + ph->p_memsz;
  }
  return 1;
}

static void write_frame(FILE* out, uintptr_t pc) {
  if (pc >= g_lo && pc < g_hi) {
    fprintf(out, " %lx", (unsigned long)(pc - g_bias));
    return;
  }
  Dl_info where;
  if (dladdr((void*)pc, &where) != 0 && where.dli_fname != NULL) {
    fprintf(out, " %s+%lx", where.dli_fname,
            (unsigned long)(pc - (uintptr_t)where.dli_fbase));
  } else {
    fprintf(out, " ?+%lx", (unsigned long)pc);
  }
}

static void dump(void) {
  if (g_dumped || g_buf == NULL) return;
  g_dumped = 1;
  disarm();
  const char* dir = getenv("WIERA_PROF_DIR");
  char path[4096];
  snprintf(path, sizeof path, "%s/prof.%ld.txt", dir != NULL ? dir : ".",
           (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  char program[4096];
  const ssize_t n = readlink("/proc/self/exe", program, sizeof program - 1);
  program[n > 0 ? n : 0] = '\0';
  fprintf(out, "# wiera-prof program %s samples %zu\n", program, g_samples);
  for (size_t at = 0; at < g_len;) {
    const size_t depth = (size_t)g_buf[at++];
    for (size_t i = kSkipFrames; i < depth; ++i) write_frame(out, g_buf[at + i]);
    fputc('\n', out);
    at += depth;
  }
  fclose(out);
}

void _exit(int status) {
  dump();
  void (*real_exit)(int) = (void (*)(int))dlsym(RTLD_NEXT, "_exit");
  real_exit(status);
  for (;;) {
  }
}

__attribute__((destructor)) static void at_exit(void) { dump(); }

__attribute__((constructor)) static void start(void) {
  void* mem = mmap(NULL, kBufferSlots * sizeof(uintptr_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return;
  g_buf = (uintptr_t*)mem;
  // The first backtrace() loads the unwinder; do it outside the handler.
  void* warm[4];
  backtrace(warm, 4);
  dl_iterate_phdr(find_program, NULL);
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_sigaction = on_prof;
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  pthread_atfork(NULL, NULL, in_child);
  arm();
}
