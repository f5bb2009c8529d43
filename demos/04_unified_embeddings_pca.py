#!/usr/bin/env python3
"""Project unified comment embeddings to 2-D and compare against features.

After training, each video maps to a single 300-d (here 16-d) unified
comment embedding. PCA to two components makes the class structure visible
and writes the same CSV the batch pipeline produces for plotting.
"""

import tempfile
from pathlib import Path

import numpy as np

from ucnet import (LexiconSet, TrainingConfig, export_report, pca_project,
                   train, train_title_scorer)
from ucnet.lexical import feature_matrix
from ucnet.network import extract_unified_embeddings
from ucnet.synthetic import (make_embedding_table, make_labeled_titles,
                             make_synthetic_corpus)

lexicons = LexiconSet.default()
corpus = make_synthetic_corpus(n_videos=80, seed=13)
table = make_embedding_table(seed=13, dimension=16)
scorer = train_title_scorer(make_labeled_titles(80, seed=13), lexicons)

config = TrainingConfig(learning_rate=2e-3, epochs=10, batch_size=8, seed=0)
model = train(corpus, table, lexicons, scorer, config, lstm_hidden=16)

labels = [record.label for record in corpus]

# Left-hand view: PCA of the eight simple features.
features = feature_matrix(list(corpus), lexicons, scorer)
feature_proj, feature_var = pca_project(features, 2)

# Right-hand view: PCA of the unified comment embeddings.
unified = extract_unified_embeddings(corpus, table, model)
unified_proj, unified_var = pca_project(unified, 2)


def class_separation(projection):
    fake = projection[[lab == "fake" for lab in labels]]
    real = projection[[lab == "real" for lab in labels]]
    gap = np.linalg.norm(fake.mean(axis=0) - real.mean(axis=0))
    spread = 0.5 * (fake.std() + real.std())
    return gap / spread


print("explained variance (top 2 components)")
print(f"    simple features     : {feature_var}")
print(f"    unified embeddings  : {unified_var}")
print("\nclass-mean separation (gap / spread, higher is better)")
print(f"    simple features     : {class_separation(feature_proj):.2f}")
print(f"    unified embeddings  : {class_separation(unified_proj):.2f}")

out_dir = Path(tempfile.mkdtemp(prefix="pca-demo-"))
export_report(unified_proj, out_dir / "unified_pca.csv",
              video_ids=corpus.ids(), labels=labels)
export_report(feature_proj, out_dir / "features_pca.csv",
              video_ids=corpus.ids(), labels=labels)
print(f"\nwrote projection CSVs to {out_dir}")
print("columns: video_id,pc1,pc2,label (ready for any plotting tool)")
