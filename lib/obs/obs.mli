(** Zero-cost-when-disabled telemetry: metrics registry and span tracing.

    Every instrumented layer of the simulator (lib/fs, lib/bb, lib/sim,
    lib/mpi, lib/core) calls into this module unconditionally; when no sink
    is installed each call is a single load-and-branch no-op, so the
    instrumentation costs nothing on the paths the benchmarks measure.

    A {!sink} collects three kinds of telemetry for one run:

    - {b metrics} — named counters, gauges (with a timestamped sample
      series) and histograms, in a registry keyed by dotted names such as
      ["fs.reads.strong"] or ["bb.backlog"];
    - {b spans} — named begin/end regions on a {!track}, stamped with both
      the simulator's Lamport clock (via the registered logical-clock hook)
      and host wall-clock;
    - {b instants} — point events on a track (a drain burst, a stall).

    The exporters ({!Export_chrome}, {!Export_metrics}, {!App_report})
    render an installed-and-filled sink to Perfetto-openable Chrome trace
    JSON, Prometheus-style text + CSV, and a Darshan-style per-application
    I/O report. *)

type track =
  | T_rank of int  (** One simulated MPI rank. *)
  | T_fs  (** The PFS simulator. *)
  | T_bb  (** The burst-buffer tier. *)
  | T_sched  (** The cooperative scheduler. *)
  | T_mpi  (** The communication substrate. *)
  | T_core  (** Offline analysis phases. *)

type span = {
  sp_name : string;
  sp_track : track;
  sp_t0 : int;  (** Logical (Lamport) time at entry. *)
  sp_t1 : int;  (** Logical time at exit. *)
  sp_w0 : float;  (** Wall-clock seconds at entry. *)
  sp_w1 : float;  (** Wall-clock seconds at exit. *)
  sp_args : (string * string) list;
}

type instant = {
  ev_name : string;
  ev_track : track;
  ev_t : int;  (** Logical time. *)
  ev_args : (string * string) list;
}

type metric =
  | Counter of int
  | Gauge of { value : int; series : (int * int) list }
      (** Current value plus every [(logical_time, value)] sample, in
          recording order. *)
  | Histogram of float array  (** Samples in observation order. *)

type sink

val create : unit -> sink

val install : sink -> unit
(** Make [sink] the current telemetry destination.  Replaces any
    previously installed sink. *)

val uninstall : unit -> unit

val installed : unit -> sink option

val enabled : unit -> bool
(** True when a sink is installed.  Instrumentation sites whose argument
    computation is itself costly should gate on this. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install [sink] for the duration of the callback, restoring the
    previously installed sink (if any) afterwards, even on exceptions. *)

(** {2 Clock hooks}

    The logical clock is registered by the scheduler for the duration of a
    simulation ({!Hpcfs_sim.Sched.run} does this); outside a simulation it
    reads 0.  The wall clock defaults to [Unix.gettimeofday] and is
    replaceable so golden-file tests can render deterministic traces. *)

val set_logical_clock : (unit -> int) -> unit
val clear_logical_clock : unit -> unit
val set_wall_clock : (unit -> float) -> unit
val logical_now : unit -> int

(** {2 Instrumentation points}

    All of these are no-ops when no sink is installed. *)

val incr : ?by:int -> string -> unit
(** Add to a counter (creating it at 0). *)

val gauge : string -> int -> unit
(** Set a gauge and record a [(logical_now (), value)] sample. *)

val observe : string -> float -> unit
(** Add a sample to a histogram. *)

val event : track -> ?args:(string * string) list -> string -> unit
(** Record an instant event at the current logical time. *)

val span : track -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the callback inside a named span.  When disabled this is exactly
    the callback.  The span is recorded even if the callback raises. *)

val span_at :
  track -> t0:int -> t1:int -> ?args:(string * string) list -> string -> unit
(** Record a span whose logical extent is already known (e.g. a barrier's
    enter/exit ticks); both wall stamps are taken at the call. *)

(** {2 Reading a sink} *)

val metrics : sink -> (string * metric) list
(** Snapshot of every metric, in first-registration order. *)

val find_counter : sink -> string -> int
(** Counter value, 0 when absent (or not a counter). *)

val find_gauge : sink -> string -> int

val spans : sink -> span list
(** Completed spans, in completion order. *)

val instants : sink -> instant list
(** Instant events, in recording order. *)

val span_summary : sink -> (string * int * int * float) list
(** Per span name: [(name, count, total_logical_ticks, total_wall_seconds)],
    in first-appearance order. *)

val reset : sink -> unit
