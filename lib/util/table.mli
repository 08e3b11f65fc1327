(** Plain-text table rendering for experiment output.

    The benchmark harness reprints every table and figure of the paper as
    aligned ASCII tables; this module does the layout. *)

type align = Left | Right | Center

type t

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table with the given column headers.
    [aligns] defaults to left alignment for every column. *)

val add_row : t -> string list -> unit
(** Append a row. Rows shorter than the header are padded with empty cells;
    longer rows raise [Invalid_argument]. *)

val render : t -> string
(** Render with a header rule and outer borders. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

(** {2 Cell formatting}

    The conventional cell formats shared by the experiment tables. *)

val pct_cell : float -> string
(** Percentage with one decimal: [pct_cell 52.07] is ["52.1"]. *)

val mark_cell : bool -> string
(** Presence mark: ["x"] when true, empty otherwise. *)

val check_cell : bool -> string
(** Comparison verdict: ["ok"] when true, ["DIFF"] otherwise. *)
