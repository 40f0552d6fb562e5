(** Hierarchical, DNS-style names.

    The paper notes that "one possible practical implementation is to
    assign each node a hierarchical name as in the DNS system". This
    module implements that front end: names like ["db.cs.stanford"]
    denote a path of domains from the root, and a set of names induces a
    {!Domain_tree.t}. Used by the public API and the storage examples so
    applications never touch raw domain indices. *)

type t = string list
(** A name as a path from the root, e.g. [["stanford"; "cs"; "db"]].
    The empty list names the root domain. *)

val of_string : string -> t
(** ["db.cs.stanford"] becomes [["stanford"; "cs"; "db"]] (DNS order is
    most-specific-first; we store root-first). [""] is the root. *)

type namespace
(** A set of leaf names closed into a tree. *)

val namespace_of_leaves : t list -> namespace
(** Builds the namespace whose leaves are (at least) the given names.
    Raises [Invalid_argument] if one name is a strict prefix of another
    (a domain cannot be both a leaf and an interior domain), or if the
    list is empty. *)

val tree : namespace -> Domain_tree.t

val domain_of_name : namespace -> t -> int
(** Domain index of a name; raises [Not_found] for unknown names. *)
