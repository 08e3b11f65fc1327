(** QCheck generator of random valid workloads, used as a whole-stack soak
    test: every generated workload passes {!Workload.validate}, round-trips
    through the text syntax, and compiles to a body that runs to completion
    under any engine at any scale.

    Runnability is by construction: the first I/O phase is always a write,
    and read phases re-target (layout, file, ranks) triples of an earlier
    write phase, so a read never opens a file no rank created.  Offsets need
    no such care — reads past EOF are short, not errors. *)

module Workload = Hpcfs_wl.Workload

val gen : Workload.t QCheck.Gen.t

val arbitrary : Workload.t QCheck.arbitrary
(** {!gen} printed via {!Workload.to_string}. *)
