(** Declarative workload language (FBench-style).

    The 17 hand-written application models of [lib/apps] are a closed set;
    this module makes the space of HPC I/O patterns the paper studies
    expressible as a small value: a named sequence of {e phases}, each an
    I/O burst (write/read/checkpoint) over a {e layout} (one shared file
    vs file-per-process, consecutive/strided/segmented/random placement)
    or a synchronization step (barrier/compute).  A workload value can be
    built with the combinators below or parsed from the compact text
    syntax, and compiles (see {!Compile}) to a [Runner.env -> unit] body
    that runs through the existing simulator/validation stack unchanged.

    {2 Text syntax}

    A spec is a [;]-separated list of phases, each
    [head:key=value,key=value,...] in the style of fault plans:

    {v
    write:layout=shared,pattern=strided,block=512,count=3
    read:layout=fpp,count=1,sync=close
    checkpoint:steps=100,every=20,layout=shared,pattern=strided
    meta:op=create,files=64,layout=shared-dir
    meta:op=stat,files=64,layout=fpp
    barrier
    compute:n=2
    mix:n=8|3*write:layout=shared|1*read|2*compute
    v}

    Keys for [write]/[read]/[checkpoint]: [layout] (shared|fpp), [pattern]
    (consecutive|strided|segmented|random), [block] (bytes per operation),
    [count] (operations per rank), [ranks] (only the first K ranks do the
    I/O), [file] (logical file name inside the workload's directory) and
    [sync] (none|fsync|close: leave the file open dirty, fsync it, or
    close it at the end of the phase).  [checkpoint] adds [steps] and
    [every] (checkpoint cadence: a fresh file every [every]-th step).

    Keys for [meta]: [op] (create|stat|readdir|unlink|mkdir|rename),
    [files] (operations per participating rank), [layout] (shared-dir:
    every rank in one directory — the classic metadata storm; fpp: one
    subdirectory per rank), [dir] (directory name inside the workload's
    directory) and [ranks].

    [mix] draws [n] phases (default 8) at random from its [|]-separated
    branches, each weighted by an optional [W*] prefix (default weight 1).
    The branch sequence is drawn from a seed-derived stream shared by
    every rank, so collective branches (barriers, shared-file creation)
    stay aligned; branches cannot nest another [mix].

    Parse errors name the offending token and the accepted keys. *)

type layout = Shared | File_per_process

type order = Consecutive | Strided | Segmented | Random

type sync = Sync_none | Fsync | Close

type io = {
  layout : layout;
  order : order;
  block : int;  (** bytes per operation *)
  count : int;  (** operations per participating rank *)
  ranks : int option;  (** only ranks [< k] participate; [None] = all *)
  file : string;  (** logical file name inside the workload directory *)
  sync : sync;
}

type meta_op = Mcreate | Mstat | Mreaddir | Munlink | Mmkdir | Mrename

type meta = {
  m_op : meta_op;
  m_files : int;  (** operations per participating rank *)
  m_layout : layout;
      (** [Shared]: every rank works in one shared directory (a
          metadata storm that funnels into one shard);
          [File_per_process]: each rank in its own subdirectory. *)
  m_dir : string;  (** directory name inside the workload directory *)
  m_ranks : int option;  (** only ranks [< k] participate; [None] = all *)
}

type phase =
  | Write of io
  | Read of io
  | Checkpoint of { io : io; steps : int; every : int }
      (** [steps] compute steps; every [every]-th step opens a fresh
          epoch file, writes [io] into it and applies [io.sync]. *)
  | Meta of meta
      (** A metadata burst: [m_files] creates/stats/... per participating
          rank.  Stats target {e other} ranks' files, so relaxed-engine
          stat caches can serve stale attributes.  Failing operations
          (stat of a not-yet-created file) are swallowed — a storm never
          aborts the workload. *)
  | Barrier
  | Compute of int  (** allreduce steps *)
  | Mix of { draws : int; branches : (int * phase) list }
      (** [draws] phases picked at random from the weighted [branches]
          (every rank draws the same sequence, from a seed-derived stream
          independent of the per-rank data streams).  Branches cannot nest
          another [Mix]. *)

type t = { name : string; phases : phase list }

(** {1 Combinators} *)

val io :
  ?layout:layout ->
  ?order:order ->
  ?block:int ->
  ?count:int ->
  ?ranks:int ->
  ?file:string ->
  ?sync:sync ->
  unit ->
  io
(** Defaults: shared layout, consecutive order, 512-byte blocks, one
    operation, every rank, file ["data"], close at the end of the phase. *)

val write :
  ?layout:layout ->
  ?order:order ->
  ?block:int ->
  ?count:int ->
  ?ranks:int ->
  ?file:string ->
  ?sync:sync ->
  unit ->
  phase

val read :
  ?layout:layout ->
  ?order:order ->
  ?block:int ->
  ?count:int ->
  ?ranks:int ->
  ?file:string ->
  ?sync:sync ->
  unit ->
  phase

val checkpoint :
  ?layout:layout ->
  ?order:order ->
  ?block:int ->
  ?count:int ->
  ?ranks:int ->
  ?file:string ->
  ?sync:sync ->
  ?steps:int ->
  ?every:int ->
  unit ->
  phase
(** Defaults: 20 steps, checkpoint every 10, file ["ckpt"]. *)

val meta :
  ?op:meta_op ->
  ?files:int ->
  ?layout:layout ->
  ?dir:string ->
  ?ranks:int ->
  unit ->
  phase
(** Defaults: [create], 16 files, shared directory, dir ["meta"], every
    rank. *)

val barrier : phase
val compute : int -> phase

val mix : ?draws:int -> (int * phase) list -> phase
(** Weighted random phase mix; default 8 draws. *)

val make : ?name:string -> phase list -> t

(** {1 Text syntax} *)

val of_string : ?name:string -> string -> (t, string) result
(** Parse the compact syntax above.  Rejections name the offending token
    and what the grammar accepts ([Plan.of_string]-style). *)

val to_string : t -> string
(** Canonical spec (defaults omitted); [of_string (to_string w)] equals
    [w] up to the name. *)

(** {1 Checks} *)

val validate : t -> (t, string) result
(** Static checks beyond the grammar: at least one phase, positive sizes
    and cadences.  [of_string] applies it already; the combinator API can
    build unchecked values, so sweeps over generated workloads call it
    explicitly. *)
