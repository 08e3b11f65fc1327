(* Directory-partitioned shard map: a path is served by the metadata
   shard owning its *parent directory*, so every entry of one directory
   lives on one shard (readdir and create/unlink of siblings hit a single
   server, like Lustre DNE or CephFS dirfrags).  File-per-process layouts
   that give each rank its own subdirectory therefore spread across
   shards, while a shared-directory create storm funnels into one — the
   tradeoff the metadata bench measures. *)

(* The parent is the canonical path up to its last '/'; ["/"] for a
   top-level entry and for the root. *)
let parent_len key = max 1 (String.rindex key '/')

let parent path =
  let key = Namespace.canonical path in
  let n = parent_len key in
  if n = String.length key then key else String.sub key 0 n

(* 32-bit FNV-1a over [s]'s first [n] bytes.  Deterministic across runs
   and platforms, cheap, and well-mixed for short path strings. *)
let hash_prefix s n =
  let h = ref 0x811c9dc5 in
  for i = 0 to n - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0xffffffff
  done;
  !h

(* Hashes the parent in place, without cutting it out of the path. *)
let shard ~shards path =
  if shards <= 1 then 0
  else
    let key = Namespace.canonical path in
    hash_prefix key (parent_len key) mod shards
