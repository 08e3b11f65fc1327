(** LBANN model: read-intensive CIFAR-10 training input — every rank
    reads the whole dataset (N-1; locally consecutive, globally random). *)

val run : Runner.env -> unit
