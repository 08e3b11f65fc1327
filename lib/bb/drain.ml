type t =
  | Sync_on_close
  | Async of { bandwidth_bytes_per_tick : int; drain_interval : int }
  | On_laminate

let name = function
  | Sync_on_close -> "sync-close"
  | Async _ -> "async"
  | On_laminate -> "laminate"

let describe = function
  | Sync_on_close -> "synchronous drain on close/fsync"
  | Async { bandwidth_bytes_per_tick; drain_interval } ->
    Printf.sprintf "async drain (%d B/tick, every %d ticks)"
      bandwidth_bytes_per_tick drain_interval
  | On_laminate -> "drain only on laminate/stage-out"

let default_async =
  Async { bandwidth_bytes_per_tick = 65536; drain_interval = 32 }

let pp ppf t = Format.pp_print_string ppf (describe t)
