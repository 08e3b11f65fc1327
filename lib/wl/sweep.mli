(** What-if sweep engine: expand a parameter grid over workloads and run
    every cell.

    A grid is the cartesian product
    [ranks x workloads x engines x tiers x fault plans]; each cell runs
    the compiled workload under that configuration and yields one row of
    the conflict/staleness/perf matrix: the observed sharing pattern, the
    session/commit conflict matrices from trace analysis, the stale reads
    the application saw, and the files corrupted relative to a fault-free
    strong-consistency reference of the same workload and scale.

    Cell order — and therefore row order, the printed table and the CSV —
    is the deterministic nested-loop order of the grid lists, and every
    run is seeded, so the same grid produces bit-identical reports. *)

type grid = {
  ranks : int list;
  workloads : (string * Workload.t) list;
  engines : Hpcfs_fs.Consistency.t list;
  tiers : (string * Hpcfs_bb.Tier.config option) list;
  plans : (string * Hpcfs_fault.Plan.t option) list;
}

val default_grid : grid
(** [ranks = [8]], no workloads, all four engines (eventual with the
    default delay), direct-PFS only, no fault plan. *)

type row = {
  ranks : int;
  workload : string;
  engine : string;  (** e.g. ["session"] or ["eventual:16"] *)
  tier : string;
  plan : string;
  xy : string;  (** observed Table 3 classification, e.g. ["N-1"] *)
  structure : string;
  session_matrix : string;  (** ["WAWs/WAWd/RAWs/RAWd"] pair counts *)
  commit_matrix : string;
  stale_reads : int;
  corrupted : int;  (** files differing from the strong reference *)
  files : int;
  wall_s : float;  (** cell wall-clock; excluded from the CSV *)
}

val cells : grid -> int
(** Number of cells the grid expands to. *)

val run : ?seed:int -> grid -> row list
(** Run every cell.  [seed] seeds every run (default 42).
    The strong fault-free reference of each (workload, ranks) pair
    ({!Hpcfs_apps.Validation.reference_run}) is run once and shared by the
    cells that compare against it; when the pair's first cell is the
    strong, direct, unplanned one, that cell's run is the reference. *)

val csv_header : string

val row_csv : row -> string
(** Deterministic CSV line (no wall-clock). *)

val row_cells : row -> string list
(** Table cells, aligned with {!columns}. *)

val columns : string list
