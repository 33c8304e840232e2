"""Command-line interface.

Subcommands: gen-synth, train, eval, score, gradcheck. Every command is
deterministic given --seed and its inputs. Exit codes: 0 success, 1 usage
or configuration error, 2 data error, 3 numeric failure.
"""

import argparse
import re
import sys

from . import data as dp
from .checkpoint import load_checkpoint, save_checkpoint
from .embeddings import (RunStats, encode_sentence, load_embeddings,
                         random_embeddings, tokenize, write_embeddings)
from .errors import (ArcMatchError, CheckpointError, ConfigError, DataError,
                     NumericError, ParseError, ShapeError)
from .metrics import classify_eval, p_at_1, select_threshold
from .models import MODEL_KINDS, _ints, _pairs, build_model
from .tensor import make_rng
from .training import TrainConfig, gradient_check, train


class UsageError(ArcMatchError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="arcmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate a synthetic pair corpus")
    _add_common(g)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--pairs", type=int, default=1000)
    g.add_argument("--vocab-size", type=int, default=200)
    g.add_argument("--topics", type=int, default=10)
    g.add_argument("--len-min", type=int, default=7)
    g.add_argument("--len-max", type=int, default=12)
    g.add_argument("--split", default="80/10/10", help="train/val/test percentages")

    t = sub.add_parser("train", help="train a matching model")
    _add_common(t)
    t.add_argument("--model", required=True, choices=MODEL_KINDS)
    t.add_argument("--train", required=True, dest="train_file")
    t.add_argument("--val", required=True, dest="val_file")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--embeddings", help="word2vec text file")
    t.add_argument("--random-embeddings", action="store_true")
    t.add_argument("--embed-dim", type=int, default=50)
    t.add_argument("--embed-seed", type=int, default=None,
                   help="seed for --random-embeddings (default: --seed)")
    t.add_argument("--max-len", type=int, default=16)
    t.add_argument("--window", type=int, default=3)
    t.add_argument("--maps", type=_ints, default="",
                   help="feature maps, e.g. '16,16' (arc1; default 16,16); "
                        "arc2 and senna take the first")
    t.add_argument("--twod", type=_pairs, default="2:16,2:16",
                   help="2D conv layers for arc2 as window:maps,...")
    t.add_argument("--hidden", type=_ints, default="64", help="MLP hidden widths, csv")
    t.add_argument("--activation", default="relu", choices=("relu", "sigmoid"))
    t.add_argument("--tie-weights", action="store_true")
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
    _add_common(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--embeddings")
    e.add_argument("--random-embeddings", action="store_true")
    e.add_argument("--embed-dim", type=int, default=50)
    e.add_argument("--embed-seed", type=int, default=None)
    e.add_argument("--vocab-from", default=None,
                   help="comma-separated pair files for --random-embeddings")
    e.add_argument("--max-len", type=int, default=None,
                   help="override the checkpoint's max_len for encoding")
    e.add_argument("--negatives", type=int, default=4)
    e.add_argument("--neg-mode", default="random", choices=("random", "hard", "shuffle"))
    e.add_argument("--classify", action="store_true",
                   help="data is 'x TAB y TAB 0|1'; report accuracy/F1")
    e.add_argument("--threshold", type=float, default=None)
    e.add_argument("--dev", default=None,
                   help="labeled dev file for threshold selection (--classify)")

    s = sub.add_parser("score", help="score sentence pairs with a checkpoint")
    _add_common(s)
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--embeddings")
    s.add_argument("--random-embeddings", action="store_true")
    s.add_argument("--embed-dim", type=int, default=50)
    s.add_argument("--embed-seed", type=int, default=None)
    s.add_argument("--vocab-from", default=None)
    s.add_argument("--x", dest="sent_x")
    s.add_argument("--y", dest="sent_y")
    s.add_argument("--pairs", dest="pair_file", help="TSV of x TAB y")

    c = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common(c)
    c.add_argument("--model", default="all", choices=(*MODEL_KINDS, "all"))
    c.add_argument("--eps", type=float, default=1e-5)
    c.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    return parser


# --- helpers ----------------------------------------------------------------


def _collect_tokens(paths) -> set:
    tokens = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                for part in line.split("\t"):
                    tokens.update(tokenize(part))
    return tokens


def _table_from_args(args, vocab_paths):
    if args.embeddings:
        with open(args.embeddings, encoding="utf-8") as fh:
            return load_embeddings(fh)
    if args.random_embeddings:
        seed = args.embed_seed if args.embed_seed is not None else args.seed
        tokens = _collect_tokens(vocab_paths)
        if not tokens:
            raise DataError("no tokens found to build random embeddings from")
        return random_embeddings(tokens, args.embed_dim, make_rng(seed))
    raise UsageError("need --embeddings FILE or --random-embeddings")


def _build_model(args, embed_dim):
    """The model the flags describe; each kind reads the builder arguments
    it takes (see models.KINDS)."""
    maps = args.maps or (16, 16)
    flags = dict(embed_dim=embed_dim, max_len=args.max_len,
                 windows=(args.window, 2), feature_maps=maps,
                 window1=args.window, maps1=maps[0], window=args.window, maps=maps[0],
                 twod_layers=args.twod, hidden=args.hidden, activation=args.activation,
                 dropout=args.dropout, tie_weights=args.tie_weights)
    return build_model(args.model, flags, make_rng(args.seed))


def _encoding_scorer(model, table, max_len, stats):
    def score(x_tokens, y_tokens):
        sx = encode_sentence(x_tokens, table, max_len, stats)
        sy = encode_sentence(y_tokens, table, max_len, stats)
        return model.score(sx, sy)[0]

    return score


# --- commands ---------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    import os

    split = re.fullmatch(r"(\d+)/(\d+)/(\d+)", args.split)
    parts = [int(p) for p in split.groups()] if split else []
    if sum(parts) != 100:
        raise UsageError(f"--split must be three percentages summing to 100, got {args.split}")
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
    rng = make_rng(args.seed)
    stats = RunStats()
    with open(args.train_file, encoding="utf-8") as fh:
        train_corpus = dp.load_pairs(fh, provenance=args.train_file)
    with open(args.val_file, encoding="utf-8") as fh:
        val_corpus = dp.load_pairs(fh, provenance=args.val_file)
    table = _table_from_args(args, [args.train_file, args.val_file])
    if args.random_embeddings:
        embed_dim = args.embed_dim
    else:
        embed_dim = table.dim
    model = _build_model(args, embed_dim)

    token_triples = dp.sample_negatives(train_corpus, args.train_negatives,
                                        args.neg_mode, table, rng, stats)
    triples = dp.encode_triples(token_triples, table, args.max_len, stats)
    val_token = dp.make_eval_instances(val_corpus, args.val_negatives,
                                       args.neg_mode, table, rng, stats)
    val_instances = dp.encode_instances(val_token, table, args.max_len, stats)

    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      max_epochs=args.epochs, patience=args.patience,
                      dropout=args.dropout, eval_every=args.eval_every,
                      finetune_embeddings=args.finetune_embeddings,
                      seed=args.seed)
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
    if stats.truncated:
        print(f"note: {stats.truncated}/{stats.sentences} sentences truncated "
              f"to --max-len {args.max_len}")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, kv = load_checkpoint(args.checkpoint)
    vocab_paths = args.vocab_from.split(",") if args.vocab_from else [args.data]
    table = _table_from_args(args, vocab_paths)
    max_len = args.max_len or int(kv.get("max_len", 16))
    stats = RunStats()
    scorer = _encoding_scorer(model, table, max_len, stats)
    if args.classify:
        labeled = _load_labeled(args.data)
        if args.threshold is not None:
            threshold = args.threshold
        elif args.dev:
            threshold = select_threshold(scorer, _load_labeled(args.dev))
        else:
            raise UsageError("--classify needs --threshold or --dev FILE")
        report = classify_eval(scorer, labeled, threshold)
    else:
        with open(args.data, encoding="utf-8") as fh:
            corpus = dp.load_pairs(fh, provenance=args.data)
        rng = make_rng(args.seed)
        instances = dp.make_eval_instances(corpus, args.negatives, args.neg_mode,
                                           table, rng, stats)
        report = p_at_1(scorer, instances)
    print(report.table())
    print()
    print(report.kv_lines())
    return 0


def _load_labeled(path):
    labeled = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise UsageError(
                    f"{path}:{lineno}: --classify needs 'x TAB y TAB 0|1' lines "
                    f"(got {len(cols)} columns; is this a ranking/pair file?)"
                )
            x, y, label = cols
            if label.strip() not in ("0", "1"):
                raise ParseError(f"label must be 0 or 1, got {label!r}", line=lineno)
            xt, yt = tokenize(x), tokenize(y)
            if not xt or not yt:
                raise ParseError("labeled pair has an empty side", line=lineno)
            labeled.append((xt, yt, int(label)))
    if not labeled:
        raise DataError(f"no labeled pairs in {path}")
    return labeled


def cmd_score(args) -> int:
    model, kv = load_checkpoint(args.checkpoint)
    if args.pair_file:
        vocab_default = [args.pair_file]
    elif args.sent_x is not None and args.sent_y is not None:
        vocab_default = []
    else:
        raise UsageError("need --pairs FILE or both --x and --y")
    vocab_paths = args.vocab_from.split(",") if args.vocab_from else vocab_default
    table = _table_from_args(args, vocab_paths)
    max_len = int(kv.get("max_len", 16))
    stats = RunStats()
    scorer = _encoding_scorer(model, table, max_len, stats)
    if args.pair_file:
        with open(args.pair_file, encoding="utf-8") as fh:
            corpus = dp.load_pairs(fh, provenance=args.pair_file)
        for x, y in corpus.pairs:
            print(f"{scorer(x, y):.6f}")
    else:
        xt, yt = tokenize(args.sent_x), tokenize(args.sent_y)
        if not xt or not yt:
            raise DataError("cannot score an empty sentence")
        print(f"{scorer(xt, yt):.6f}")
    return 0


def cmd_gradcheck(args) -> int:
    kinds = MODEL_KINDS if args.model == "all" else (args.model,)
    worst = 0.0
    for kind in kinds:
        err = gradient_check(kind, seed=args.seed, eps=args.eps,
                             negate_bias_grad=args.inject_fault)
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


if __name__ == "__main__":
    sys.exit(main())
