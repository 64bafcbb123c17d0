/*
 * A sampling self-time profiler that adds nothing to the binary it
 * measures: preload it, and every SIGPROF (CPU time, so a process that
 * sleeps is not sampled) records the interrupted instruction pointer as an
 * offset into the main executable. At exit the offsets are written one per
 * line, in hex, for `fold.sh` to resolve with addr2line.
 *
 *   gcc -O2 -shared -fPIC -o libsigprof.so tools/profile/sigprof.c
 *   SIGPROF_OUT=samples.txt LD_PRELOAD=./libsigprof.so target/release/sbsim ...
 *
 * The timer asks for a sample every millisecond; the kernel delivers it on
 * its own tick, so the rate reached is at most its CONFIG_HZ (about 250
 * samples a second on a 4 ms tick). Samples outside the
 * executable (libc, the vDSO) are counted, not recorded; the fold reports
 * their share. Linux, x86-64 only, and meant for single-threaded runs
 * (`sbsim`, `bench --workload W`): the handler keeps no lock, so two
 * threads taking SIGPROF at once can lose a sample.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)

static unsigned long offsets[MAX_SAMPLES];
static volatile sig_atomic_t recorded;
static volatile unsigned long outside;
static unsigned long exe_lo, exe_hi; /* load bias, end of the last segment */

/* The first object dl_iterate_phdr reports is the main executable. */
static int find_exe(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    exe_lo = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        unsigned long end = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
        if (ph->p_type == PT_LOAD && end > exe_hi) {
            exe_hi = end;
        }
    }
    return 1;
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long ip = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    if (ip < exe_lo || ip >= exe_hi) {
        outside++;
    } else if (recorded < MAX_SAMPLES) {
        offsets[recorded] = ip - exe_lo;
        recorded = recorded + 1;
    }
}

__attribute__((constructor)) static void arm(void) {
    dl_iterate_phdr(find_exe, NULL);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval timer = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SIGPROF_OUT");
    FILE *out = fopen(path ? path : "sigprof.txt", "w");
    if (!out) {
        return;
    }
    fprintf(out, "# outside %lu\n", outside);
    for (long i = 0; i < recorded; i++) {
        fprintf(out, "%lx\n", offsets[i]);
    }
    fclose(out);
}
