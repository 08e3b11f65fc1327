(** Trace sink shared by every instrumented I/O layer of one run.

    Two modes:

    - {b in-memory} (default): records accumulate in memory;
    - {b spill}: records stream through the binary {!Codec} into a file,
      one chunk at a time, so collector memory stays bounded by the
      chunk size no matter how many records the run emits (the
      Recorder-at-scale mode).  Spilled chunks are counted on the
      [trace.codec.chunks_spilled] telemetry counter. *)

type t

type spill = {
  path : string;  (** Binary trace file the chunks stream into. *)
  chunk_records : int;  (** Records buffered before a chunk is written. *)
}

val create : ?spill:spill -> unit -> t

val emit : t -> Record.t -> unit

val finish : t -> unit
(** Flush the pending chunk and write the binary trailer (idempotent;
    no-op for an in-memory collector).  Reading a spill collector's file
    before [finish] sees a truncated trace. *)

val spill_path : t -> string option

val records : t -> Record.t list
(** All records in increasing timestamp order.  On a spill collector
    this finishes the file and reads it back whole — convenient for
    small runs and tests, but it materializes the list; stream {!spill_path}
    through {!Tracefile.iter} to stay bounded.

    @raise Failure if a spill collector's own file fails to re-read. *)

val by_rank : t -> Record.t list array
(** Records split per rank (index = rank), each in timestamp order.
    The array is sized by the largest rank seen.  Materializes (see
    {!records}). *)

val count : t -> int

val clear : t -> unit
(** Drop everything collected so far; a spill collector restarts its
    file from scratch. *)
