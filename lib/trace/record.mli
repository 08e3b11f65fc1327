(** Trace records, the unit of data the whole study runs on.

    One record corresponds to one intercepted call, as produced by the
    Recorder tracer in the paper: entry timestamp, rank, function name and
    arguments, tagged with the I/O layer the call belongs to and the
    software layer that issued it (so Figure 3 can attribute metadata
    operations to MPI, HDF5, or the application). *)

type layer = L_posix | L_mpiio | L_hdf5
(** API layer of the traced call itself. *)

type origin =
  | O_app  (** Issued directly by the application (or a library Recorder
               does not trace, as in the paper). *)
  | O_mpi  (** Issued internally by the MPI / MPI-IO library. *)
  | O_hdf5
  | O_netcdf
  | O_adios
  | O_silo

type t = {
  time : int;  (** Entry timestamp (logical clock; unique per record). *)
  rank : int;
  layer : layer;
  origin : origin;
  func : string;  (** e.g. ["write"], ["MPI_File_write_at_all"], ["H5Dwrite"]. *)
  file : string option;  (** Path, when the call names one. *)
  fd : int option;  (** File descriptor / handle, when the call uses one. *)
  offset : int option;
      (** Explicit offset carried by the call ([pwrite], [lseek], ...);
          [None] for calls like [write] whose offset is implicit. *)
  count : int option;  (** Byte count for data ops; seek argument for lseek. *)
  args : (string * string) list;  (** Remaining arguments, e.g. open flags. *)
}

val layer_name : layer -> string
val origin_name : origin -> string
val layer_of_name : string -> layer option
val origin_of_name : string -> origin option

val make :
  time:int -> rank:int -> layer:layer -> origin:origin -> func:string ->
  ?file:string -> ?fd:int -> ?offset:int -> ?count:int ->
  ?args:(string * string) list -> unit -> t

val arg : t -> string -> string option
(** Look up a named argument. *)

val to_line : t -> string
(** One-line tab-separated serialization.  Tabs, newlines and backslashes
    inside free-form fields (function name, path, argument keys and
    values) are escaped ([\t], [\n], [\\]), and ['='] inside argument
    keys is escaped as [\=], so any record round-trips through
    {!of_line}. *)

val line_length : t -> int
(** [String.length (to_line t)], computed without building the line. *)

val check_extent : offset:int option -> count:int option -> (unit, string) result
(** Refuse an extent the analysis cannot represent: a negative [count],
    or an [offset + count] above [max_int]. *)

val of_line : string -> (t, string) result
(** Parse a line produced by {!to_line}, undoing the field escaping.
    Fails on a malformed field and on an extent {!check_extent}
    refuses. *)

val compare_time : t -> t -> int
(** Order by timestamp (unique within a run). *)
