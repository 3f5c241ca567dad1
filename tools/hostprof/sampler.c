/*
 * hostprof sampler: where does a process spend its *host* time?
 *
 * An LD_PRELOAD library.  SIGALRM from ITIMER_REAL every 200 us
 * (ITIMER_PROF ticks at the 4 ms scheduler jiffy in this container,
 * which is 40 samples for a 10 s run); the handler takes the interrupted
 * instruction pointer from the signal context, walks the frame-pointer
 * chain from there into a static buffer, and the destructor writes
 * the executable's path, size and mtime, /proc/self/maps and the
 * stacks to $HOSTPROF_OUT (default ./hostprof.out) for report.py, which
 * symbolises against the files on disk and so refuses an executable
 * rebuilt since.  Real time, not CPU time: a process that sleeps is
 * sampled where it sleeps.
 *
 * The target must keep frame pointers (RUSTFLAGS="-C
 * force-frame-pointers=yes"); a frame that does not is where the walk
 * stops.  Only the main thread's stack is walked — its bounds are the
 * one range the walker can check a pointer against before it follows it
 * — so a sample on another thread is its leaf alone.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 200
#define MAX_DEPTH 48
/* 4 Mi words: 10 s at 5 kHz with full-depth stacks fits twice over. */
#define BUF_WORDS (4u << 20)

/* Samples back to back: a depth word, then that many addresses, leaf
 * first. */
static uintptr_t buf[BUF_WORDS];
static size_t used;
static size_t dropped;
static uintptr_t stack_lo, stack_hi;

static void on_alarm(int sig, siginfo_t *info, void *raw)
{
    (void)sig;
    (void)info;
    ucontext_t *uc = raw;
    uintptr_t frames[MAX_DEPTH];
    size_t depth = 0;
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];

    frames[depth++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    if (sp >= stack_lo && sp < stack_hi) {
        /* A frame pointer is followed only if it lies in the main
         * stack above the last one: a register that merely holds data
         * ends the walk instead of faulting it. */
        uintptr_t floor = sp;
        while (depth < MAX_DEPTH && fp >= floor && fp + 16 <= stack_hi && (fp & 7) == 0) {
            uintptr_t ret = ((uintptr_t *)fp)[1];
            if (ret == 0)
                break;
            frames[depth++] = ret;
            floor = fp + 16;
            fp = ((uintptr_t *)fp)[0];
        }
    }
    size_t at = __atomic_fetch_add(&used, depth + 1, __ATOMIC_RELAXED);
    if (at + depth + 1 > BUF_WORDS) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    buf[at] = depth;
    memcpy(&buf[at + 1], frames, depth * sizeof frames[0]);
}

/* The [stack] line of /proc/self/maps: the main thread's stack. */
static void find_main_stack(void)
{
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!maps)
        return;
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        if (strstr(line, "[stack]") && sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
            stack_lo = lo;
            stack_hi = hi;
        }
    }
    fclose(maps);
}

static void set_timer(long period_us)
{
    struct itimerval every = {{0, period_us}, {0, period_us}};
    setitimer(ITIMER_REAL, &every, NULL);
}

__attribute__((constructor)) static void hostprof_start(void)
{
    struct sigaction act;
    memset(&act, 0, sizeof act);
    act.sa_sigaction = on_alarm;
    act.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&act.sa_mask);
    find_main_stack();
    sigaction(SIGALRM, &act, NULL);
    set_timer(PERIOD_US);
}

__attribute__((destructor)) static void hostprof_dump(void)
{
    set_timer(0);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    char exe[4096];
    struct stat st;
    if (!out)
        return;
    fprintf(out, "# hostprof period_us=%d dropped=%zu", PERIOD_US, dropped);
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len > 0 && stat("/proc/self/exe", &st) == 0) {
        exe[len] = '\0';
        fprintf(out, " exe_size=%lld exe_mtime_ns=%lld\n# exe\n%s\n", (long long)st.st_size,
                (long long)st.st_mtim.tv_sec * 1000000000LL + st.st_mtim.tv_nsec, exe);
    } else {
        fputc('\n', out);
    }
    fprintf(out, "# maps\n");
    while (maps && fgets(line, sizeof line, maps))
        fputs(line, out);
    if (maps)
        fclose(maps);
    fprintf(out, "# stacks\n");
    size_t end = used < BUF_WORDS ? used : BUF_WORDS;
    /* A zero depth is the unwritten tail left by a dropped sample. */
    for (size_t at = 0; at < end && buf[at] != 0 && at + buf[at] < end; at += buf[at] + 1) {
        for (size_t i = 1; i <= buf[at]; i++)
            fprintf(out, i == 1 ? "%lx" : " %lx", (unsigned long)buf[at + i]);
        fputc('\n', out);
    }
    fclose(out);
}
