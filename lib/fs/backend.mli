(** Pluggable storage backend behind the POSIX layer.

    The instrumented POSIX layer (lib/posix) performs every data operation
    through this record instead of calling {!Pfs} directly, so the same
    application code can run against the bare parallel file system or
    against a burst-buffer tier (lib/bb) that stages writes node-locally
    before draining them to the PFS.

    Metadata stays strongly consistent and is served by the backing PFS's
    {!Namespace} in both cases — the paper relaxes only data operations —
    so the record carries the backing {!Pfs.t} alongside the data-path
    closures. *)

type t = {
  pfs : Pfs.t;
      (** The backing file system: authoritative namespace, metadata and
          final durable contents. *)
  open_file : time:int -> rank:int -> create:bool -> trunc:bool -> string -> int;
      (** Returns the file size after any truncation, like
          {!Pfs.open_file}. *)
  close_file : time:int -> rank:int -> string -> unit;
  read :
    time:int -> rank:int -> string -> off:int -> len:int -> Fdata.read_result;
  write : time:int -> rank:int -> string -> off:int -> bytes -> unit;
      (** Takes ownership of the buffer, as {!Pfs.write} does: the caller
          must not mutate it afterwards.  [read] returns a fresh buffer. *)
  fsync : time:int -> rank:int -> string -> unit;
  truncate : time:int -> string -> int -> unit;
  file_size : string -> int;
}

val of_pfs : Pfs.t -> t
(** The identity backend: every operation goes straight to the PFS. *)
