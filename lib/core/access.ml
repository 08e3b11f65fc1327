module Interval = Hpcfs_util.Interval

type op = Read | Write

type t = {
  time : int;
  rank : int;
  file : string;
  iv : Interval.t;
  op : op;
  func : string;
  t_open : int;
  t_commit : int;
  t_close : int;
}

let is_write a = a.op = Write

let compare_start a b =
  match Interval.compare_lo a.iv b.iv with
  | 0 -> compare a.time b.time
  | c -> c
