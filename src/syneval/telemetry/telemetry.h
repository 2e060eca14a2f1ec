// Telemetry compile-time switch.
//
// The telemetry layer (metrics registry, flight recorder, Perfetto exporter) is the repository's
// measurement substrate: every mechanism self-instruments against it, so its hot-path
// cost must be controllable. The CMake option SYNEVAL_TELEMETRY (default ON) governs
// SYNEVAL_TELEMETRY_ENABLED; when OFF the Runtime attachment points collapse to
// constant-null accessors, which lets the compiler eliminate every instrumentation
// branch (and, crucially, the clock reads) from the mechanism hot paths. The telemetry
// classes themselves always exist — benches and tests use them directly — only the
// mechanism-level instrumentation is compiled out.

#ifndef SYNEVAL_TELEMETRY_TELEMETRY_H_
#define SYNEVAL_TELEMETRY_TELEMETRY_H_

#ifndef SYNEVAL_TELEMETRY_ENABLED
#define SYNEVAL_TELEMETRY_ENABLED 1
#endif

#endif  // SYNEVAL_TELEMETRY_TELEMETRY_H_
