// Copyright 2026 The SPLASH Reproduction Authors.
//
// Crash-point fault injection for the durability layer. A crash point is a
// named location on the WAL / checkpoint I/O path where a test (or the
// kill-9 harness) can make the process die exactly as `kill -9` would:
// `_exit(kCrashExitCode)` — no destructors, no buffered flushes, no fsync.
// tests/serve_recovery_test forks a child, arms one point, drives traffic
// until it fires, then recovers in the parent and checks the bit-exact
// oracle.
//
// Cost model: the SPLASH_CRASH_POINT macro compiles to `((void)0)` unless
// the build defines SPLASH_FAULT_INJECTION — production builds carry zero
// code. The CMake option of the same name (default ON, so stock test
// builds always exercise the recovery paths) defines it tree-wide; even
// then a disarmed point is one relaxed atomic load on an I/O path that
// just paid for a write() syscall.
//
// Arming: programmatic (ArmCrashPoint, used by the fork-based tests) or
// via the environment (SPLASH_CRASH_POINT=<name>[:<nth>], used by the
// crash-harness child binary). `nth` counts hits: 1 fires on the first
// pass through the point.

#ifndef SPLASH_SERVE_FAULT_INJECTION_H_
#define SPLASH_SERVE_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>

namespace splash {

enum class CrashPoint : int {
  kWalAfterAppend = 0,        // record bytes written, group-commit pending
  kWalBeforeFsync,            // sync decided but not issued
  kWalMidFrame,               // torn write: only a prefix of the frame lands
  kCheckpointMidWrite,        // temp file half-written
  kCheckpointBeforeRename,    // temp durable, rename not issued
  kCheckpointAfterRename,     // checkpoint live, WAL GC pending
  kNumCrashPoints,
};

/// Exit status a fired crash point dies with (the shell convention for
/// SIGKILL, 128 + 9) — lets harnesses distinguish an injected crash from a
/// clean exit or an assertion failure.
constexpr int kCrashExitCode = 137;

const char* CrashPointName(CrashPoint p);

/// Parses a CrashPointName back to its enum. Returns false on unknown.
bool ParseCrashPoint(const char* name, CrashPoint* out);

/// Arms `p` to fire on its `nth` hit (1 = first). 0 disarms.
void ArmCrashPoint(CrashPoint p, uint32_t nth);

void DisarmAllCrashPoints();

/// Reads SPLASH_CRASH_POINT=<name>[:<nth>] and arms accordingly. A missing
/// or malformed variable arms nothing.
void ArmCrashPointsFromEnv();

/// Decrements `p`'s countdown; true when this hit should crash. Exposed
/// (rather than folded into the macro) for the torn-write point, whose
/// caller must emit a partial frame between the check and the crash.
bool CrashPointHit(CrashPoint p);

/// Dies like kill -9 would: immediate _exit(kCrashExitCode).
[[noreturn]] void CrashNow();

}  // namespace splash

#if defined(SPLASH_FAULT_INJECTION)
#define SPLASH_CRASH_POINT(p)                        \
  do {                                               \
    if (::splash::CrashPointHit(p)) ::splash::CrashNow(); \
  } while (0)
#else
#define SPLASH_CRASH_POINT(p) ((void)0)
#endif

#endif  // SPLASH_SERVE_FAULT_INJECTION_H_
