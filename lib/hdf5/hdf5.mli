(** Simplified HDF5 model reproducing the library's I/O-visible behaviour.

    Only the behaviours that matter to the paper's analysis are modeled, but
    those are modeled carefully:

    - {b File structure}: a superblock and per-dataset object headers live in
      a metadata region at the start of the file; raw dataset data is
      allocated above it.  Metadata accesses are therefore the small
      low-offset reads/writes the paper identifies in Figure 2.
    - {b Metadata cache}: object creation and writes dirty metadata entries;
      the entries are written out only at [flush] (H5Fflush) or [close]
      (H5Fclose).  In parallel mode metadata writes are {e independent}
      (never funneled through the MPI-IO aggregators — cf. the ~30 ranks the
      paper observes writing metadata), and the writer of a given entry
      rotates across the metadata-participant ranks, so repeated flushes of
      a long-lived file produce exactly FLASH's WAW-S and WAW-D conflicts —
      which disappear under commit semantics because every metadata writer
      fsyncs as part of the flush.
    - {b Collective metadata mode}: when enabled, rank 0 performs all
      metadata writes (the paper's proposed one-line FLASH fix).
    - {b Figure 3 metadata footprint}: the library issues the POSIX
      metadata operations the paper attributes to HDF5 ([getcwd], [lstat],
      [fstat], [ftruncate], [access]) at the corresponding points.

    All trace records carry layer [L_hdf5] (API calls) or the HDF5 origin
    (POSIX calls issued internally). *)

type backend =
  | B_posix of Hpcfs_posix.Posix.ctx
      (** Serial HDF5: direct POSIX I/O, single process per file. *)
  | B_mpiio of Hpcfs_mpiio.Mpiio.ctx
      (** Parallel HDF5 over MPI-IO; data transfers may be collective. *)

type file
type dataset

val create :
  ?collective_metadata:bool -> backend -> string -> file
(** [H5Fcreate].  In parallel mode this is collective over the backend's
    communicator.  [collective_metadata] defaults to [false]. *)

val open_ : ?collective_metadata:bool -> backend -> string -> file
(** [H5Fopen] for reading: reads the superblock. *)

val close : file -> unit
(** [H5Fclose]: flushes dirty metadata, truncates the file to the end of
    allocation, and closes the underlying handle(s). *)

val flush : file -> unit
(** [H5Fflush]: write out dirty metadata and fsync — the commit operation
    the paper's footnote 2 recognizes. *)

val create_dataset : file -> string -> nbytes:int -> dataset
(** [H5Dcreate]: allocates an object header (metadata) and the data extent.
    Collective in parallel mode (all ranks must call with equal sizes). *)

val open_dataset : file -> string -> dataset
(** [H5Dopen]: reads the object header of an existing dataset. *)

val write_independent : dataset -> off:int -> bytes -> unit
(** [H5Dwrite] with independent transfer: writes [bytes] at [off] within
    the dataset's extent and dirties its object header. *)

val write_collective : dataset -> off:int -> bytes -> unit
(** [H5Dwrite] with collective transfer (requires the MPI-IO backend):
    funnels data through the aggregators. *)

val read : dataset -> off:int -> int -> bytes
(** [H5Dread] independent. *)

val write_attribute : file -> string -> bytes -> unit
(** [H5Awrite]: small immediate metadata write into the header region (used
    by applications that update attributes mid-run). *)

val read_attribute : file -> string -> int -> bytes
(** [H5Aread]: small metadata read from the header region. *)

val dataset_offset : dataset -> int
(** Absolute file offset of the dataset's raw data (for tests). *)

val metadata_region_size : int
(** Bytes reserved at the start of the file for metadata (for tests). *)

val reset_registries : unit -> unit
(** Clear the cross-instance dataset/attribute layout registries (called by
    the application runner between independent runs). *)
