(** The one table value, and its three renderers.

    Every fixed-column table the tools print is a {!t}: the paper's
    artifacts behind [armvirt run] and [armvirt report], the md/csv
    tables of [explore], [migrate], [fleet] and [cluster], [stat]'s CSV
    and crosscheck, and the linter's CSV. A table is data: its builder
    formats every cell, and a renderer only pads, escapes and joins
    them, so the text, CSV and markdown of one table cannot disagree. *)

type align = Left | Right

type column = {
  head : string list;
      (** Header lines, top to bottom; most heads have one. *)
  width : int;  (** Text padding; a longer cell prints whole. *)
  align : align;
}

type t = private {
  title : string list;  (** Lines printed above the text table. *)
  rule : int;  (** Width of the text table's dashed rules; 0 for none. *)
  columns : column list;
  rows : string list list;  (** Formatted cells, one list per row. *)
  notes : string list;  (** Lines printed below the text table. *)
}

val v :
  ?title:string list ->
  ?rule:int ->
  ?notes:string list ->
  column list ->
  string list list ->
  t
(** [title], [notes] default to none and [rule] to 0. Raises
    [Invalid_argument] if a row's cell count differs from the column
    count. *)

val left : int -> string -> column
(** [left width head]: a left-aligned column with a one-line head. *)

val right : int -> string -> column
(** [right width head]: a right-aligned column with a one-line head. *)

val heads : string list -> column list
(** Unpadded left-aligned columns, for tables only rendered as CSV or
    markdown. *)

val float : (float -> string, unit, string) format -> float -> string
(** [float fmt x] formats a cell: [x] through [fmt], or ["-"] when [x]
    is undefined (NaN or infinite), so no table prints [nan] or [inf]. *)

val text : Format.formatter -> t -> unit
(** The title lines; a rule; the header lines (skipped, with the rule
    under them, when every head is empty); a rule; the rows; a closing
    rule; the notes. Cells are padded to their column's width and
    joined by one space. *)

val csv : Format.formatter -> t -> unit
(** RFC 4180: one header row, each head's non-empty lines joined by a
    space, then the rows. Title and notes are the caller's. *)

val markdown : Format.formatter -> t -> unit
(** A GitHub-flavoured table: the CSV's header row, a [|---|] row, then
    the rows, with [|] escaped and line breaks turned into spaces in
    every cell. Title and notes are the caller's. *)

val csv_field : string -> string
(** One RFC 4180 field, the only CSV quoting in [lib/]: a field holding
    a comma, quote, LF or CR is quoted, with embedded quotes doubled.
    CR matters: an unquoted ["\r\n"] splits the row for readers that
    accept either line ending. *)
