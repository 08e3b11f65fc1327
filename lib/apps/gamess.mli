(** GAMESS model: a subset of ranks, one in every four, maintaining scratch
    integral files (M-M; WAW-S from record-0 rewrites). *)

val run : Runner.env -> unit
