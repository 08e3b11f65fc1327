module Namespace = Hpcfs_fs.Namespace
module Pfs = Hpcfs_fs.Pfs
module Target = Hpcfs_fs.Target
module Shardmap = Hpcfs_fs.Shardmap
module Consistency = Hpcfs_fs.Consistency
module Obs = Hpcfs_obs.Obs

(* The sharded metadata service.  Server state is the one authoritative
   {!Namespace} of the backing PFS; what this layer adds is

   - the shard map: every operation is accounted against (and checked for
     availability on) the shard owning the path's parent directory, so
     per-shard load shows where a create storm funnels;
   - a per-client {!Mdcache} whose serve/drop protocol is the active
     consistency engine's: strong looks through on every call, commit
     and session revalidate at commit/open, eventual serves entries up
     to a TTL;
   - ground-truth staleness: every answer served from a cache is
     compared against the authoritative namespace at serve time — the
     metadata analogue of [Pfs.read_oracle] for data.

   Load is modelled in deterministic cost units (below), not wall time,
   so bench output is bit-identical across runs. *)

let cost_lookup = 1 (* stat / access / open-by-path *)
let cost_readdir = 2
let cost_create = 3 (* create and mkdir: allocate inode + dirent *)
let cost_remove = 2 (* unlink and rmdir *)
let cost_rename = 4 (* two dirents, two shards in the worst case *)

type t = {
  pfs : Pfs.t;
  ns : Namespace.t;
  semantics : Consistency.t;
  shards : int;
  shard_ops : int array;
  shard_load : int array;
  client_load : (int, int ref) Hashtbl.t;
  caches : (int, Mdcache.t) Hashtbl.t;
  op_counts : (string, int ref) Hashtbl.t;
  mutable server_ops : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable stale_stats : int;
  mutable stale_dents : int;
  mutable revalidations : int;
  mutable invalidations : int;
  mutable rejected : int;
}

let create pfs =
  let shards = Pfs.mds_shards pfs in
  {
    pfs;
    ns = Pfs.namespace pfs;
    semantics = Pfs.semantics pfs;
    shards;
    shard_ops = Array.make shards 0;
    shard_load = Array.make shards 0;
    client_load = Hashtbl.create 64;
    caches = Hashtbl.create 64;
    op_counts = Hashtbl.create 16;
    server_ops = 0;
    cache_hits = 0;
    cache_misses = 0;
    stale_stats = 0;
    stale_dents = 0;
    revalidations = 0;
    invalidations = 0;
    rejected = 0;
  }

let cache_of t client =
  match Hashtbl.find_opt t.caches client with
  | Some c -> c
  | None ->
    let c = Mdcache.create () in
    Hashtbl.add t.caches client c;
    c

let shard_of t path = Shardmap.shard ~shards:t.shards path

(* Whether the engine may serve a cache entry filled at [cached_at]:
   entries published at an operation stay valid until the protocol drops
   them (commit, reopen, own mutation). *)
let may_serve t ~time ~cached_at =
  match Consistency.publication t.semantics with
  | On_arrival -> false
  | At_operation -> true
  | After_delay -> time - cached_at <= Consistency.delay t.semantics

let caching t = Consistency.publication t.semantics <> On_arrival

(* Server-side accounting of one operation on [path]'s shard.  Raises
   {!Target.Mds_down} when that shard is unavailable — cache hits never
   come here, which is the point: clients keep resolving cached entries
   through a dead shard's outage. *)
let serve t ~time ~op ~cost path =
  let k = shard_of t path in
  if not (Target.mds_available (Pfs.targets t.pfs) k) then begin
    t.rejected <- t.rejected + 1;
    Target.note_rejected (Pfs.targets t.pfs);
    Obs.incr "md.rejected";
    raise (Target.Mds_down { time })
  end;
  t.shard_ops.(k) <- t.shard_ops.(k) + 1;
  t.shard_load.(k) <- t.shard_load.(k) + cost;
  t.server_ops <- t.server_ops + 1;
  (match Hashtbl.find_opt t.op_counts op with
  | Some r -> incr r
  | None -> Hashtbl.add t.op_counts op (ref 1));
  Obs.incr "md.ops";
  k

(* Client-side accounting: every issued metadata call costs the client
   one unit, hit or miss.  The run's modelled metadata makespan is the
   slower of the busiest shard and the busiest client. *)
let charge_client t client =
  match Hashtbl.find_opt t.client_load client with
  | Some r -> incr r
  | None -> Hashtbl.add t.client_load client (ref 1)

let hit t =
  t.cache_hits <- t.cache_hits + 1;
  Obs.incr "md.cache.hits"

let miss t =
  t.cache_misses <- t.cache_misses + 1;
  Obs.incr "md.cache.misses"

let note_revalidations t n =
  if n > 0 then begin
    t.revalidations <- t.revalidations + n;
    Obs.incr ~by:n "md.cache.revalidations"
  end

let note_invalidation t cache path =
  (match Mdcache.find_attr cache path with
  | Some _ ->
    t.invalidations <- t.invalidations + 1;
    Obs.incr "md.cache.invalidations"
  | None -> ());
  Mdcache.drop cache path

let drop_parent_dents t cache path =
  let parent = Shardmap.parent path in
  (match Mdcache.find_dents cache parent with
  | Some _ ->
    t.invalidations <- t.invalidations + 1;
    Obs.incr "md.cache.invalidations"
  | None -> ());
  Mdcache.drop_dents cache parent

(* Authoritative attributes, [None] for a missing path (a negative
   lookup is cacheable too). *)
let truth_attr t path =
  match Namespace.stat t.ns path with
  | s -> Some s
  | exception Namespace.Not_found_path _ -> None
  | exception Namespace.Not_a_directory _ -> None

let stat_eq (a : Namespace.stat option) b = a = b

(* The heart of the cache protocol: resolve [path]'s attributes for
   [client], serving from its cache when the engine allows and counting
   ground-truth staleness when the cached answer no longer matches the
   authoritative namespace. *)
let resolve_attr t ~time ~client path =
  let cache = cache_of t client in
  charge_client t client;
  let serve_cached (e : Namespace.stat option Mdcache.entry) =
    hit t;
    if not (stat_eq e.Mdcache.value (truth_attr t path)) then begin
      t.stale_stats <- t.stale_stats + 1;
      Obs.incr "md.cache.stale_stats"
    end;
    e.Mdcache.value
  in
  match Mdcache.find_attr cache path with
  | Some e when may_serve t ~time ~cached_at:e.Mdcache.cached_at ->
    serve_cached e
  | entry ->
    (* Expired or absent: a server lookup refreshes the cache. *)
    if entry <> None then Mdcache.drop cache path;
    miss t;
    ignore (serve t ~time ~op:"stat" ~cost:cost_lookup path);
    let v = truth_attr t path in
    if caching t then Mdcache.put_attr cache ~time path v;
    v

let stat t ~time ~client path =
  match resolve_attr t ~time ~client path with
  | Some s -> s
  | None -> raise (Namespace.Not_found_path path)

let exists t ~time ~client path =
  match resolve_attr t ~time ~client path with
  | Some _ -> true
  | None -> false

let is_dir t ~time ~client path =
  match resolve_attr t ~time ~client path with
  | Some s -> s.Namespace.st_kind = Namespace.Directory
  | None -> false

let readdir t ~time ~client path =
  let cache = cache_of t client in
  charge_client t client;
  match Mdcache.find_dents cache path with
  | Some e when may_serve t ~time ~cached_at:e.Mdcache.cached_at ->
    hit t;
    (match Namespace.readdir t.ns path with
    | truth ->
      if truth <> e.Mdcache.value then begin
        t.stale_dents <- t.stale_dents + 1;
        Obs.incr "md.cache.stale_dents"
      end
    | exception Namespace.Not_found_path _ | exception Namespace.Not_a_directory _
      ->
      t.stale_dents <- t.stale_dents + 1;
      Obs.incr "md.cache.stale_dents");
    e.Mdcache.value
  | entry ->
    if entry <> None then Mdcache.drop_dents cache path;
    miss t;
    ignore (serve t ~time ~op:"readdir" ~cost:cost_readdir path);
    let entries = Namespace.readdir t.ns path in
    if caching t then Mdcache.put_dents cache ~time path entries;
    entries

(* Mutations always go to the server (write-through): the owning shard
   is checked and charged, the namespace is updated, and the mutating
   client's own cached entries for the affected paths are dropped so it
   reads its own metadata writes.  Other clients' caches are deliberately
   left alone — that lag is exactly the staleness the engines differ on. *)

let own_mutation t ~client path =
  if caching t then begin
    let cache = cache_of t client in
    note_invalidation t cache path;
    drop_parent_dents t cache path
  end

let mkdir t ~time ~client path =
  charge_client t client;
  ignore (serve t ~time ~op:"mkdir" ~cost:cost_create path);
  Namespace.mkdir t.ns ~time path;
  own_mutation t ~client path

let rmdir t ~time ~client path =
  charge_client t client;
  ignore (serve t ~time ~op:"rmdir" ~cost:cost_remove path);
  Namespace.rmdir t.ns path;
  own_mutation t ~client path

let unlink t ~time ~client path =
  charge_client t client;
  ignore (serve t ~time ~op:"unlink" ~cost:cost_remove path);
  Namespace.unlink t.ns path;
  own_mutation t ~client path

let rename t ~time ~client src dst =
  charge_client t client;
  ignore (serve t ~time ~op:"rename" ~cost:cost_rename src);
  (* The destination dirent lives on its own shard: check it too, and
     charge it the dirent insertion when it differs from the source's. *)
  let ks = shard_of t src and kd = shard_of t dst in
  if kd <> ks then begin
    if not (Target.mds_available (Pfs.targets t.pfs) kd) then begin
      t.rejected <- t.rejected + 1;
      Target.note_rejected (Pfs.targets t.pfs);
      Obs.incr "md.rejected";
      raise (Target.Mds_down { time })
    end;
    t.shard_load.(kd) <- t.shard_load.(kd) + cost_lookup
  end;
  Namespace.rename t.ns ~time src dst;
  own_mutation t ~client src;
  own_mutation t ~client dst

(* Open-path hook, called by the POSIX layer before the backend open.
   Where the open acquires, the client drops whatever it cached about the
   path so its view starts fresh.  The open itself is a server lookup (or
   a create, when the file springs into existence), charged to the owning
   shard — and its response carries the path's attributes, so under every
   caching engine the opener's attr entry is refreshed with truth (an open
   never leaves a stale negative behind). *)
let note_open t ~time ~client ~create path =
  let creating = create && not (Namespace.exists t.ns path) in
  (if Consistency.open_acquires t.semantics then
     let cache = cache_of t client in
     let had =
       (match Mdcache.find_attr cache path with Some _ -> 1 | None -> 0)
       + match Mdcache.find_dents cache path with Some _ -> 1 | None -> 0
     in
     note_revalidations t had;
     Mdcache.drop cache path);
  charge_client t client;
  ignore
    (serve t ~time
       ~op:(if creating then "create" else "open")
       ~cost:(if creating then cost_create else cost_lookup)
       path);
  if creating then own_mutation t ~client path
  else if caching t then
    (* The open response carries the path's current attributes: refresh
       the opener's entry so an open never leaves a stale negative
       behind.  (When creating, the file does not exist yet — the
       backend creates it right after this hook — so the entry is
       dropped above instead and the next stat round-trips.) *)
    Mdcache.put_attr (cache_of t client) ~time path (truth_attr t path)

(* Commit-path hook (fsync and friends): where fsync publishes, the
   committing client drops its whole cache. *)
let note_commit t ~time:_ ~client =
  if Consistency.publishes_at t.semantics `Fsync then begin
    match Hashtbl.find_opt t.caches client with
    | None -> ()
    | Some cache ->
      note_revalidations t (Mdcache.size cache);
      Mdcache.clear cache
  end

(* Data-path hook: a client's own write or truncate changes size/mtime
   behind its attribute cache; drop just that entry so a process always
   sees its own effects (local metadata read-your-writes). *)
let note_local_write t ~client path =
  if caching t then
    match Hashtbl.find_opt t.caches client with
    | None -> ()
    | Some cache -> Mdcache.drop cache path

(* A job restart: client caches die with the clients, the server-side
   namespace, shard loads and counters carry over. *)
let reset_clients t =
  Hashtbl.reset t.caches

type stats = {
  server_ops : int;
  by_op : (string * int) list;
  shard_ops : int list;
  shard_load : int list;
  server_makespan : int;
  client_makespan : int;
  total_load : int;
  cache_hits : int;
  cache_misses : int;
  stale_stats : int;
  stale_dents : int;
  revalidations : int;
  invalidations : int;
  rejected : int;
}

let stats t =
  let by_op =
    Hashtbl.fold (fun op r acc -> (op, !r) :: acc) t.op_counts []
    |> List.sort compare
  in
  let client_makespan =
    Hashtbl.fold (fun _ r acc -> max acc !r) t.client_load 0
  in
  {
    server_ops = t.server_ops;
    by_op;
    shard_ops = Array.to_list t.shard_ops;
    shard_load = Array.to_list t.shard_load;
    server_makespan = Array.fold_left max 0 t.shard_load;
    client_makespan;
    total_load = Array.fold_left ( + ) 0 t.shard_load;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    stale_stats = t.stale_stats;
    stale_dents = t.stale_dents;
    revalidations = t.revalidations;
    invalidations = t.invalidations;
    rejected = t.rejected;
  }

let makespan s = max s.server_makespan s.client_makespan

let hit_ratio s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0.0 else float_of_int s.cache_hits /. float_of_int total
