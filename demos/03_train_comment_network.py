#!/usr/bin/env python3
"""Train the unified-comments network on a synthetic corpus and evaluate.

Runs at reduced dimensions so the demo finishes in seconds: the full-size
model (300-d comment embeddings and LSTM state) behaves the same way but
trains for a few minutes. Shows the per-epoch loss, the held-out report,
and the learned comment weights on sample comments.
"""

from ucnet import (LexiconSet, TrainingConfig, classify, evaluate, train,
                   train_title_scorer)
from ucnet.corpus import split_dataset
from ucnet.network import comment_weight, fakeness_vector
from ucnet.synthetic import (make_embedding_table, make_labeled_titles,
                             make_synthetic_corpus)

lexicons = LexiconSet.default()
corpus = make_synthetic_corpus(n_videos=100, seed=11)
table = make_embedding_table(seed=11, dimension=8)
scorer = train_title_scorer(make_labeled_titles(80, seed=11), lexicons)

train_set, test_set = split_dataset(corpus, test_fraction=0.3, seed=1)
print(f"training on {len(train_set)} videos, holding out {len(test_set)}")

config = TrainingConfig(learning_rate=2e-3, epochs=12, batch_size=8, seed=0)
model = train(train_set, table, lexicons, scorer, config, lstm_hidden=16)

print("\nper-epoch mean loss")
for epoch, loss in enumerate(model.loss_history, start=1):
    bar = "#" * int(40 * loss / model.loss_history[0])
    print(f"    epoch {epoch:2d}  {loss:.4f}  {bar}")

y_true = [record.label for record in test_set]
y_pred = [classify(model.predict_record(record, table, lexicons, scorer).p_fake)
          for record in test_set]
report = evaluate(y_true, y_pred)
print("\nheld-out report")
for label in ("fake", "real"):
    m = report.per_class(label)
    print(f"    {label:>5s}: P={m.precision:.2f} R={m.recall:.2f} "
          f"F1={m.f1:.2f} (n={m.support})")
print(f"    macro: P={report.macro_precision:.2f} "
      f"R={report.macro_recall:.2f} F1={report.macro_f1:.2f}")

# The weight head learns which indicator phrases matter: skeptical comments
# should earn different weights than small talk. The model keeps the phrase
# list it was trained on (the lexicon directory's fakeness_phrases.txt), and
# its file records it, so a loaded model scores comments without the list.
print(f"\nlearned comment weights over {len(model.phrases)} phrases")
for text in ("fake fake fake", "looks almost real to me", "love this song"):
    weight = comment_weight(fakeness_vector(text, model.phrases), model)
    print(f"    {text!r}: weight = {weight:.3f}")
