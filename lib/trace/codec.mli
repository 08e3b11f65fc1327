(** Versioned binary trace codec (format v2).

    Recorder-style compact encoding: each record is a varint header plus
    delta-encoded fields, so the common case — one rank's next operation,
    close in time and offset to its previous one, on a function and file
    already seen — costs a few bytes instead of a text line.

    {b Layout.}  A file is a 12-byte magic ["hpcfstrace" ^ version ^ '\n'],
    a sequence of chunks, and a trailer:

    - chunk: marker byte [0xC4], varint record count, varint payload
      length, 4-byte little-endian Adler-32 of the payload, payload;
    - trailer: marker byte [0xC5], varint total record count.

    Each chunk is self-contained: the string-intern table and the
    per-rank delta state reset at every chunk boundary, so a reader needs
    memory proportional to one chunk, and a corrupt chunk is detected by
    its checksum without desynchronizing the rest of the stream.  A file
    cut off anywhere — mid-chunk, or even exactly at a chunk boundary —
    fails with a precise [Error] (the trailer is mandatory).

    {b Record encoding.}  A varint header packs the layer (2 bits),
    origin (3 bits), presence bits for file/fd/offset/count, and the
    argument count; then rank (varint), time (zigzag varint delta against
    the same rank's previous record), the interned function name,
    optionally the interned file, fd, offset (zigzag delta against the
    rank's previous offset), count, and interned key/value pairs.
    Interned strings are back-references into the chunk's table: the
    first occurrence writes [next-id, length, bytes], later ones a single
    varint.

    Encoded and decoded volumes are reported through the {!set_meter}
    hook as [trace.codec.*] counters (the observability layer installs
    itself there at load time). *)

val magic : string
(** The 12-byte file prefix, version byte included. *)

val adler32 : string -> int
(** The Adler-32 checksum each chunk carries over its payload. *)

(** {2 Encoding} *)

type encoder

val encoder : ?chunk_records:int -> out_channel -> encoder
(** Write the magic and return a streaming encoder.  A chunk is flushed
    every [chunk_records] records (default 4096), so
    encoder memory is bounded by one chunk regardless of trace length. *)

val encode : encoder -> Record.t -> unit

val finish : encoder -> unit
(** Flush the final partial chunk and write the trailer.  The channel is
    left open (the caller owns it).  Encoding after [finish] raises. *)

type stats = {
  records : int;
  bytes : int;  (** Total bytes written, magic and trailer included. *)
  chunks : int;
  interned : int;  (** String-table entries created, summed over chunks. *)
}

val stats : encoder -> stats

(** {2 Decoding} *)

type decoder

val decoder : in_channel -> (decoder, string) result
(** Check the magic and version.  Fails with a descriptive error on a
    non-binary file or an unsupported version.  The channel must be
    seekable: its length, taken here, bounds every chunk's promised
    payload before the payload is allocated. *)

val iter : decoder -> f:(Record.t -> unit) -> (int, string) result
(** Decode the remaining records in order, calling [f] on each, and
    return how many the trace held once its end is clean (trailer
    verified, no trailing bytes).  Truncation (a payload longer than the
    rest of the file included), checksum mismatches and malformed
    payloads (a string id outside the chunk's table included) stop the
    loop with an [Error] naming the offending chunk; a record whose
    extent {!Record.check_extent} refuses, with an [Error] naming the
    chunk and the record's 1-based position in the trace.  Records
    before the error have been passed to [f].

    Inside, a malformed record raises {!Varint.Malformed}, which the
    varint reader raises too; [iter] turns it into the [Error], so no
    exception leaves the decoder except one [f] raises itself.  Each
    message is formatted only when its check fails, and a record is
    handed to [f] unboxed: decoding allocates the record and little
    else (17.7 words per record on the 615,920-record trace of the
    [trace-analyze] benchmark, down from 333 when every field went
    through a [result] and every record formatted its two error strings
    in advance). *)

(** {2 Telemetry hook} *)

val set_meter : enabled:(unit -> bool) -> (string -> int -> unit) -> unit
(** Install the counter sink for [trace.codec.*] metrics.  [enabled]
    gates the one derived metric whose computation is not free (the
    text-equivalent byte count behind the compression ratio). *)

val tick : string -> int -> unit
(** Bump a counter through the installed meter (no-op without one); used
    by the collector's spill mode for its own [trace.codec.*] counters. *)
