"""Command-line interface.

Subcommands: gen-synth, train, eval, score, gradcheck. Every command is
deterministic given --seed and its inputs. Exit codes: 0 success, 1 usage
or configuration error (or a stdout closed early), 2 data error, 3 numeric
failure.
"""

import argparse
import math
import os
import re
import sys

from . import data as dp
from .checkpoint import load_checkpoint, save_checkpoint
from .embeddings import (load_embeddings, open_text, random_embeddings, tokenize,
                         write_embeddings)
from .errors import (ArcMatchError, CheckpointError, ConfigError, DataError,
                     NumericError, ParseError, ShapeError)
from .metrics import classify_eval, rank_report, select_threshold
from .models import MODEL_KINDS, _ints, _pairs, build_model, builder_args
from .tensor import make_rng
from .training import TrainConfig, gradient_check, score_instances, train


class UsageError(ArcMatchError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def positive_ints(text: str) -> tuple:
    """A comma-separated list of widths >= 1; empty text is ()."""
    values = _ints(text)
    if any(n < 1 for n in values):
        raise argparse.ArgumentTypeError(f"widths must be >= 1, got {text}")
    return values


def positive_pairs(text: str) -> tuple:
    """window:maps pairs, comma-separated, each count >= 1; empty text is ()."""
    pairs = _pairs(text)
    if any(n < 1 for pair in pairs for n in pair):
        raise argparse.ArgumentTypeError(f"windows and maps must be >= 1, got {text}")
    return pairs


def number(text: str) -> float:
    """A float that is not NaN; +-inf pass."""
    x = float(text)
    if math.isnan(x):
        raise argparse.ArgumentTypeError(f"must be a number, got {text}")
    return x


def build_parser() -> _Parser:
    parser = _Parser(prog="arcmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic pair corpus")
    g.add_argument("--seed", type=non_negative_int, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--pairs", type=int, default=1000)
    g.add_argument("--vocab-size", type=int, default=200)
    g.add_argument("--topics", type=int, default=10)
    g.add_argument("--len-min", type=int, default=7)
    g.add_argument("--len-max", type=int, default=12)
    g.add_argument("--split", default="80/10/10", help="train/val/test percentages")

    t = sub.add_parser("train", help="train a matching model")
    t.add_argument("--seed", type=non_negative_int, default=0)
    t.add_argument("--model", required=True, choices=MODEL_KINDS)
    t.add_argument("--train", required=True, dest="train_file")
    t.add_argument("--val", required=True, dest="val_file")
    t.add_argument("--out", required=True, help="checkpoint path")
    source = t.add_mutually_exclusive_group(required=True)
    source.add_argument("--embeddings", help="word2vec text file")
    source.add_argument("--random-embeddings", action="store_true", help="drawn from --seed")
    t.add_argument("--embed-dim", type=positive_int, help="--random-embeddings width (default 50)")
    t.add_argument("--max-len", type=positive_int, default=16)
    t.add_argument("--window", type=positive_int,
                   help="first conv window (arc1, arc2, senna; default 3)")
    t.add_argument("--maps", type=positive_ints,
                   help="feature maps: two for arc1 (default 16,16), one for arc2 and "
                        "senna (default 16)")
    t.add_argument("--twod", type=positive_pairs,
                   help="2D conv layers for arc2 as window:maps,... (default 2:16,2:16)")
    t.add_argument("--hidden", type=positive_ints, default="64", help="MLP hidden widths, csv")
    t.add_argument("--activation", default="relu", choices=("relu", "sigmoid"))
    t.add_argument("--tie-weights", action="store_true", default=None,
                   help="one sentence encoder for x and y (arc1)")
    t.add_argument("--dropout", type=float, default=0.0)
    t.add_argument("--lr", type=float, default=0.05)
    t.add_argument("--batch-size", type=int, default=128)
    t.add_argument("--epochs", type=int, default=50)
    t.add_argument("--patience", type=int, default=5)
    t.add_argument("--eval-every", type=int, default=50)
    t.add_argument("--neg-mode", default="random", choices=("random", "hard", "shuffle"))
    t.add_argument("--train-negatives", type=int, default=10)
    t.add_argument("--val-negatives", type=int, default=4)
    t.add_argument("--finetune-embeddings", action="store_true")
    t.add_argument("--quiet", action="store_true")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--seed", type=non_negative_int, default=0)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--embeddings", help="word2vec text file (default: CHECKPOINT.embeddings.txt)")
    e.add_argument("--max-len", type=positive_int, default=None,
                   help="encoding length for a wordembed checkpoint, which records none")
    e.add_argument("--negatives", type=int, help="negatives per ranking instance (default 4)")
    e.add_argument("--neg-mode", choices=("random", "hard", "shuffle"),
                   help="ranking negatives (default random)")
    e.add_argument("--classify", action="store_true",
                   help="data is 'x TAB y TAB 0|1'; report accuracy/F1")
    e.add_argument("--threshold", type=number, default=None)
    e.add_argument("--dev", default=None,
                   help="labeled dev file for threshold selection (--classify)")

    s = sub.add_parser("score", help="score sentence pairs with a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--embeddings", help="word2vec text file (default: CHECKPOINT.embeddings.txt)")
    s.add_argument("--x")
    s.add_argument("--y")
    s.add_argument("--pairs", help="TSV of x TAB y")

    c = sub.add_parser("gradcheck", help="finite-difference gradient check")
    c.add_argument("--seed", type=non_negative_int, default=0)
    c.add_argument("--model", default="all", choices=(*MODEL_KINDS, "all"))

    return parser


# --- helpers ----------------------------------------------------------------


def _unread(*arguments):
    """When a model flag is ignored: --model's builder takes none of the
    arguments it feeds (see _build_model)."""
    return lambda a: not builder_args(a.model) & set(arguments)


# (flags, when they would be ignored, why): giving one then is a usage error
_IGNORED_FLAGS = (
    (("--embed-dim",), lambda a: a.embeddings is not None,
     "goes with --random-embeddings, not --embeddings"),
    (("--threshold", "--dev"), lambda a: not a.classify, "goes with --classify"),
    (("--dev",), lambda a: a.threshold is not None, "picks the threshold; not with --threshold"),
    (("--x", "--y"), lambda a: a.pairs is not None, "goes with one pair, not --pairs"),
    (("--negatives", "--neg-mode"), lambda a: getattr(a, "classify", False),
     "goes with ranking, not --classify"),
    (("--window",), _unread("windows", "window1", "window"), "is not read by --model {model}"),
    (("--maps",), _unread("feature_maps", "maps1", "maps"), "is not read by --model {model}"),
    (("--twod",), _unread("twod_layers"), "is not read by --model {model}"),
    (("--tie-weights",), _unread("tie_weights"), "is not read by --model {model}"),
)


def _refuse_ignored_flags(args) -> None:
    """Refuse, before any input is read, a flag that another makes meaningless."""
    for flags, ignored, why in _IGNORED_FLAGS:
        for flag in flags:
            if getattr(args, flag[2:].replace("-", "_"), None) is not None and ignored(args):
                raise UsageError(f"{flag} {why.format_map(vars(args))}")


def _checkpoint_table(args, kv):
    """--embeddings, or else the table train wrote beside the checkpoint,
    checked to be of the checkpoint's width."""
    path = args.embeddings or args.checkpoint + ".embeddings.txt"
    with open_text(path) as fh:
        table = load_embeddings(fh)
    dim = int(kv["embed_dim"])
    if table.dim != dim:
        named = f"--embeddings {path}" if args.embeddings else path
        raise ShapeError(f"{named} has {table.dim}-dimensional "
                         f"vectors; the checkpoint's embed_dim is {dim}")
    return table


def _build_model(args, embed_dim):
    """The model the flags describe; each kind reads the builder arguments
    it takes (see models.KINDS)."""
    window = 3 if args.window is None else args.window
    maps = (16, 16) if args.maps is None else args.maps
    twod = ((2, 16), (2, 16)) if args.twod is None else args.twod
    flags = dict(embed_dim=embed_dim, max_len=args.max_len,
                 windows=(window, 2), feature_maps=maps,
                 window1=window, maps1=maps[0], window=window, maps=maps[0],
                 twod_layers=twod, hidden=args.hidden, activation=args.activation,
                 dropout=args.dropout, tie_weights=bool(args.tie_weights))
    return build_model(args.model, flags, make_rng(args.seed))


def _score_pairs(model, table, max_len, stats, pairs) -> list:
    """Scores of (x, y) token pairs."""
    instances = [dp.RankingInstance(x, [y], 0) for x, y in pairs]
    # one candidate per instance: [N, 1], or [0, 0] for no pairs
    return score_instances(model, dp.encode_instances(instances, table, max_len,
                                                      stats)).ravel().tolist()


def _note_truncated(stats, length) -> None:
    """On stderr, the sentences cut to length."""
    if stats.truncated:
        print(f"note: {stats.truncated}/{stats.sentences} sentences truncated to {length}",
              file=sys.stderr)


def _note_sampling(stats) -> None:
    """On stderr, the hard negatives that fell back and the shuffled ones
    that were skipped (in eval, each skip drops its instance)."""
    if stats.hard_negative_fallbacks:
        print(f"note: {stats.hard_negative_fallbacks}/{stats.hard_negatives} hard negatives "
              f"fell back to the closest to {sum(dp.HARD_BAND) / 2:g}", file=sys.stderr)
    if stats.shuffle_skipped:
        print(f"note: {stats.shuffle_skipped} shuffle negatives skipped: y+ has no new "
              f"order of its tokens", file=sys.stderr)


# --- commands ---------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    split = re.fullmatch(r"(\d+)/(\d+)/(\d+)", args.split)
    parts = [int(p) for p in split.groups()] if split else []
    if sum(parts) != 100:
        raise UsageError(f"--split must be three percentages summing to 100, got {args.split}")
    if args.pairs < 1:
        raise UsageError(f"--pairs must be >= 1, got {args.pairs}")
    rng = make_rng(args.seed)
    corpus, _ = dp.gen_synthetic_corpus(args.pairs, args.vocab_size,
                                        (args.len_min, args.len_max),
                                        args.topics, rng)
    n = len(corpus.pairs)
    n_val = n * parts[1] // 100
    n_test = n * parts[2] // 100
    n_train = n - n_val - n_test
    os.makedirs(args.out, exist_ok=True)
    splits = {
        "train.pairs": corpus.pairs[:n_train],
        "val.pairs": corpus.pairs[n_train : n_train + n_val],
        "test.pairs": corpus.pairs[n_train + n_val :],
    }
    for name, pairs in splits.items():
        dp.save_pairs(dp.PairCorpus(pairs=pairs), os.path.join(args.out, name))
    with open(os.path.join(args.out, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"seed={args.seed}\npairs={args.pairs}\nvocab_size={args.vocab_size}\n"
                 f"topics={args.topics}\nlen_min={args.len_min}\nlen_max={args.len_max}\n"
                 f"split={args.split}\ntrain={n_train}\nval={n_val}\ntest={n_test}\n")
    print(f"wrote {n_train}/{n_val}/{n_test} pairs under {args.out}")
    return 0


def cmd_train(args) -> int:
    count = {"arc1": 2, "arc2": 1, "senna": 1}.get(args.model)  # --maps counts read
    if args.maps is not None and len(args.maps) != count:
        raise UsageError(f"--maps takes {count} count{'s' if count > 1 else ''} for --model "
                         f"{args.model}, got {len(args.maps)}")
    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size, max_epochs=args.epochs,
                      patience=args.patience, eval_every=args.eval_every,
                      finetune_embeddings=args.finetune_embeddings, seed=args.seed)
    cfg.validate()
    table = None
    if args.embeddings:
        with open_text(args.embeddings) as fh:
            table = load_embeddings(fh)
    dim = table.dim if table is not None else args.embed_dim or 50
    # the model draws from a generator of its own: built before the corpora are read
    model = _build_model(args, dim)
    rng = make_rng(args.seed)
    stats = dp.RunStats()
    with open_text(args.train_file) as fh:
        train_corpus = dp.load_pairs(fh, provenance=args.train_file)
    with open_text(args.val_file) as fh:
        val_corpus = dp.load_pairs(fh, provenance=args.val_file)
    if table is None:
        tokens = {t for x, y in train_corpus.pairs + val_corpus.pairs for t in x + y}
        if not tokens:
            raise DataError("no tokens found to build random embeddings from")
        table = random_embeddings(tokens, dim, make_rng(args.seed))

    token_triples = dp.sample_negatives(train_corpus, args.train_negatives,
                                        args.neg_mode, table, rng, stats)
    triples = dp.encode_triples(token_triples, table, args.max_len, stats)
    val_token = dp.make_eval_instances(val_corpus, args.val_negatives,
                                       args.neg_mode, table, rng, stats)
    val_instances = dp.encode_instances(val_token, table, args.max_len, stats)

    log = None if args.quiet else print
    model, history = train(model, triples, val_instances, cfg, table=table, log=log)
    save_checkpoint(args.out, model)
    write_embeddings(table, args.out + ".embeddings.txt")
    with open(args.out + ".history.tsv", "w", encoding="utf-8") as fh:
        fh.write("epoch\tbatches\ttrain_loss\tval_p1\n")
        for epoch, batches, loss, p1 in history.records:
            fh.write(f"{epoch}\t{batches}\t{loss:.6f}\t{p1:.6f}\n")
    best = history.best
    if best is not None:
        print(f"best val_p1 {best[3]:.4f} at batch {best[1]}")
    _note_sampling(stats)
    _note_truncated(stats, f"--max-len {args.max_len}")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.classify and args.threshold is None and not args.dev:
        raise UsageError("--classify needs --threshold or --dev FILE")
    model, kv = load_checkpoint(args.checkpoint)
    if args.max_len is not None and "max_len" in kv and int(kv["max_len"]) != args.max_len:
        raise UsageError(f"--max-len {args.max_len} does not match the checkpoint's "
                         f"max_len {kv['max_len']}")
    table = _checkpoint_table(args, kv)
    max_len = args.max_len if args.max_len is not None else int(kv.get("max_len", 16))
    stats = dp.RunStats()
    if args.classify:
        scores, labels = _score_labeled(args.data, model, table, max_len, stats)
        threshold = args.threshold
        if threshold is None:
            threshold = select_threshold(*_score_labeled(args.dev, model, table, max_len, stats))
        report = classify_eval(scores, labels, threshold)
    else:
        with open_text(args.data) as fh:
            corpus = dp.load_pairs(fh, provenance=args.data)
        rng = make_rng(args.seed)
        negatives = 4 if args.negatives is None else args.negatives
        instances = dp.make_eval_instances(corpus, negatives, args.neg_mode or "random",
                                           table, rng, stats)
        encoded = dp.encode_instances(instances, table, max_len, stats)
        report = rank_report(score_instances(model, encoded), [i.answer for i in encoded])
    print(report.table())
    print()
    print(report.kv_lines())
    _note_sampling(stats)
    _note_truncated(stats, f"max_len {max_len}")
    return 0


def _score_labeled(path, model, table, max_len, stats):
    """Scores and labels of a labeled pair file's pairs."""
    with open_text(path) as fh:
        numbers, rows = dp.read_rows(fh)
    for lineno, row in zip(numbers, rows):
        if len(row) != 3:
            raise UsageError(
                f"{path}:{lineno}: --classify needs 'x TAB y TAB 0|1' lines "
                f"(got {len(row)} columns; is this a ranking/pair file?)"
            )
        x, y, label = row
        if label not in (["0"], ["1"]):
            raise ParseError(f"label must be 0 or 1, got {' '.join(label)!r}", line=lineno)
        if not x or not y:
            raise ParseError("labeled pair has an empty side", line=lineno)
    if not rows:
        raise DataError(f"no labeled pairs in {path}")
    scores = _score_pairs(model, table, max_len, stats, [(x, y) for x, y, _ in rows])
    return scores, [int(label[0]) for _, _, label in rows]


def cmd_score(args) -> int:
    if not args.pairs and (args.x is None or args.y is None):
        raise UsageError("need --pairs FILE or both --x and --y")
    model, kv = load_checkpoint(args.checkpoint)
    table = _checkpoint_table(args, kv)
    max_len = int(kv.get("max_len", 16))
    stats = dp.RunStats()
    if args.pairs:
        with open_text(args.pairs) as fh:
            pairs = dp.load_pairs(fh, provenance=args.pairs).pairs
    else:
        for flag, text in (("--x", args.x), ("--y", args.y)):
            if text != text.encode("utf-8", "replace").decode():  # argv's undecodable bytes
                raise DataError(f"{flag} is not UTF-8 text")
        pairs = [(tokenize(args.x), tokenize(args.y))]
        if not all(pairs[0]):
            raise DataError("cannot score an empty sentence")
    for score in _score_pairs(model, table, max_len, stats, pairs):
        print(f"{score:.6f}")
    _note_truncated(stats, f"max_len {max_len}")
    return 0


def cmd_gradcheck(args) -> int:
    kinds = MODEL_KINDS if args.model == "all" else (args.model,)
    worst = 0.0
    for kind in kinds:
        err = gradient_check(kind, seed=args.seed)
        worst = max(worst, err)
        verdict = "PASS" if err < 1e-4 else "FAIL"
        print(f"{kind:10s} {verdict} max_rel_err={err:.3e} (threshold 1e-04)")
    if worst >= 1e-4:
        raise NumericError(f"gradient check failed: max relative error {worst:.3e}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_ignored_flags(args)
        handler = {
            "gen-synth": cmd_gen_synth,
            "train": cmd_train,
            "eval": cmd_eval,
            "score": cmd_score,
            "gradcheck": cmd_gradcheck,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout was closed early (`arcmatch score ... | head`); point it at
        # /dev/null so that the interpreter's last flush does not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
