(** Drain policies of the burst-buffer tier: when staged node-local writes
    are flushed down to the backing parallel file system.

    The policies model the design space of Section 3.5's burst-buffer file
    systems (BurstFS/UnifyFS and kin): eager draining that preserves
    close-to-open visibility, bandwidth-limited background draining, and
    lamination-deferred draining where nothing is published until the
    application declares a file complete. *)

type t =
  | Sync_on_close
      (** Drain a file's staged extents synchronously whenever the writing
          node closes (or fsyncs) it.  The application waits for every
          flush, but close-to-open visibility is exactly that of the
          backing PFS. *)
  | Async of { bandwidth_bytes_per_tick : int; drain_interval : int }
      (** Background draining: every [drain_interval] logical-clock ticks
          the tier drains up to [bandwidth_bytes_per_tick] × elapsed-ticks
          bytes of backlog, oldest extents first.  A close or fsync still
          flushes whatever remains for that file — synchronously, counted
          as a drain stall — so visibility matches [Sync_on_close] while
          the application waits only for the backlog the background drain
          could not keep up with. *)
  | On_laminate
      (** UnifyFS-style: staged extents are drained only by an explicit
          {!Tier.laminate} / {!Tier.stage_out}.  Until then remote nodes
          read whatever the backing PFS holds — the weakest and fastest
          policy, correct only for applications that publish files
          explicitly between their write and read phases. *)

val default_async : t
(** [Async] with the default parameters: 64 KiB/tick, interval 32. *)

val name : t -> string
(** Short machine-readable name: ["sync-close"], ["async"],
    ["laminate"]. *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable description including parameters. *)
