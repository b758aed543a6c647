(** Recursive-descent parser for the OpenIVM SQL fragment: SELECT with
    CTEs, joins, grouping, aggregates, set operations and uncorrelated IN
    subqueries; CREATE TABLE / (MATERIALIZED) VIEW / INDEX; INSERT
    (including OR REPLACE and ON CONFLICT DO NOTHING); UPDATE; DELETE;
    DROP; TRUNCATE; EXPLAIN; BEGIN/COMMIT/ROLLBACK.

    The [_positioned] entry points additionally return the source {!spans}
    recorded during the parse, so diagnostics can point back into the SQL
    text. The AST itself stays position-free (the compiler compares
    subtrees structurally); spans live in a side table keyed by physical
    node identity. *)

exception Error of string * int
(** [Error (message, byte_offset)]. *)

type spans
(** Source spans recorded during one parse. *)

val no_spans : spans

val expr_span : spans -> Ast.expr -> Diagnostic.span option
(** Span of an expression node from the parse that produced [spans];
    [None] for nodes built elsewhere. Constant constructors ([Star])
    share identity and resolve to their first occurrence. *)

val from_span : spans -> Ast.from_clause -> Diagnostic.span option
val select_span : spans -> Ast.select -> Diagnostic.span option
val statement_span : spans -> Ast.stmt -> Diagnostic.span option

val parse_statement : string -> Ast.stmt
(** Parse exactly one statement (an optional trailing [;] is allowed).
    Raises {!Error} or {!Lexer.Error}. *)

val parse_statement_positioned : string -> Ast.stmt * spans

val parse_script : string -> Ast.stmt list
(** Parse a [;]-separated script; empty statements are skipped. *)

val parse_script_positioned : string -> Ast.stmt list * spans
(** All statements share one [spans] table; offsets are script-global. *)

val iter_script : (Ast.stmt -> unit) -> string -> unit
(** Parse a script one statement at a time, handing each to [f] before
    parsing the next, so a bulk-load script never holds its whole AST.
    Statements before a parse error have already run when it raises. *)

val parse_expression : string -> Ast.expr
(** Parse a scalar expression (used by tests and tools). *)

val parse_expression_positioned : string -> Ast.expr * spans

val parse_select : string -> Ast.select
(** Parse a statement and require it to be a SELECT. *)

val parse_select_positioned : string -> Ast.select * spans
