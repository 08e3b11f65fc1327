(** Deterministic fault plans: what goes wrong, where, and when.

    A plan is a seed plus a list of fault events.  Everything an injected
    fault decides at runtime (how many stripes of a torn write survive,
    backoff jitter) is drawn from a PRNG split off the plan's seed, so the
    same seed and plan reproduce the same failure bit for bit — the
    property the crash-consistency report's determinism rests on. *)

type trigger =
  | At_time of int  (** Fire at the first opportunity at/after this clock. *)
  | At_io of int  (** Fire on the victim rank's [n]-th backend I/O call. *)

type event =
  | Rank_crash of { rank : int; trigger : trigger; restart_delay : int option }
      (** Rank [rank] dies when [trigger] fires, taking the whole MPI job
          with it (the fail-stop model of checkpoint/restart practice).
          The job restarts [restart_delay] ticks later from its recovery
          path; [None] means no restart — the post-crash state is final. *)
  | Drain_fault of { node : int option; after : int; failures : int }
      (** The next [failures] burst-buffer drain attempts at/after time
          [after] — on node [node], or on any node for [None] — fail
          transiently and are retried under the tier's backoff policy. *)
  | Ost_fail of {
      target : int;
      at : int;
      recover : int option;
      failover : bool;
    }
      (** Storage target [target] fails at time [at], dropping its
          volatile (unsettled) bytes.  With [failover] a standby replica
          keeps serving the target's extents immediately; otherwise the
          target is down until [recover] ticks after [at] ([None]: never —
          its pending bytes are permanently lost). *)
  | Mds_fail of { at : int; recover : int option; shard : int option }
      (** The metadata server — or, with [shard], one directory-
          partitioned metadata shard — fails at time [at]: metadata
          operations on paths it owns are refused, which aborts the job
          fail-stop.  It restarts [recover] ticks later ([None]: never). *)
  | Log_fail of { node : int option; after : int; failures : int }
      (** The next [failures] write-ahead-log append attempts at/after
          time [after] — on node [node], or on any node for [None] — fail
          transiently; the WAL tier retries under its backoff policy and
          degrades the write to write-through once the budget is spent.
          No effect on untiered runs. *)
  | Log_cap of { bytes : int }
      (** Cap every node's write-ahead log at [bytes] for the whole run,
          exercising log-full backpressure (drain stalls, then
          write-through).  No effect on untiered runs. *)

type t = { name : string; seed : int; events : event list }

val make : ?name:string -> ?seed:int -> event list -> t
(** Defaults: name ["plan"], seed 42. *)

val crash : ?rank:int -> ?restart_delay:int -> trigger -> event
val drain_fault : ?node:int -> ?after:int -> int -> event

val ost_fail : ?recover:int -> ?failover:bool -> target:int -> int -> event
(** [ost_fail ~target at] fails [target] at time [at]; [failover] defaults
    to false. *)

val mds_fail : ?recover:int -> ?shard:int -> int -> event
val log_fail : ?node:int -> ?after:int -> int -> event
val log_cap : int -> event

val crash_count : t -> int

val has_target_failures : t -> bool
(** Does the plan contain any [Ost_fail]/[Mds_fail] event?  (Gates the
    client journal: without one, runs stay byte-identical to a build with
    no failure domain.) *)

val has_log_events : t -> bool
(** Does the plan contain any [Log_fail]/[Log_cap] event?  (Gates the WAL
    fault hook the same way.) *)

val to_string : t -> string
(** Compact spec, e.g. ["crash:rank=3,io=120,restart=64;drainfail:count=2"].
    Round-trips through {!of_string}. *)

val of_string : ?name:string -> ?seed:int -> string -> (t, string) result
(** Parse a [;]-separated list of events:
    [crash:rank=R,io=N|t=T[,restart=D]],
    [drainfail:count=K[,node=N][,after=T]],
    [ostfail:target=K,t=T[,recover=D][,failover=1]],
    [mdsfail:t=T[,shard=K][,recover=D]],
    [logfail:count=K[,node=N][,after=T]] and
    [logcap:bytes=B] (shorthand: [logcap=B]).  Unknown event names and
    unknown keys are errors, as are a negative [target] or [shard];
    messages name the offending token and the accepted alternatives for
    the event being parsed.  Whether a target or shard exists depends on
    the PFS, so {!check} tests that separately. *)

exception Invalid of string
(** A plan that parses but does not fit the PFS it is run against (see
    {!check}); the message is in {!of_string}'s style. *)

val check : t -> targets:int -> mds_shards:int -> (unit, string) result
(** Does every event name a storage target below [targets] and an MDS
    shard below [mds_shards]?  The error names the first event that does
    not, e.g. ["ostfail: target=99 out of range (storage targets: 0-7)"]. *)

val pp : Format.formatter -> t -> unit
